package dgraph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
	"distlouvain/internal/partition"
	"distlouvain/internal/seq"
)

// chunkEdges splits an edge list into p contiguous chunks (how ranks would
// see a segmented binary file).
func chunkEdges(edges []graph.RawEdge, rank, size int) []graph.RawEdge {
	lo, hi := gio.SegmentRange(int64(len(edges)), rank, size)
	return edges[lo:hi]
}

// buildDistributed runs Build on p in-process ranks over the given graph
// and hands each rank's DistGraph to check.
func buildDistributed(t *testing.T, p int, n int64, edges []graph.RawEdge, check func(dg *DistGraph) error) {
	t.Helper()
	err := mpi.Run(p, func(c *mpi.Comm) error {
		dg, err := Build(c, n, chunkEdges(edges, c.Rank(), p), nil)
		if err != nil {
			return err
		}
		if err := dg.Validate(); err != nil {
			return err
		}
		return check(dg)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBuildMatchesSharedCSR(t *testing.T) {
	n, edges := gen.ErdosRenyi(100, 400, 17)
	ref := gen.Build(n, edges)
	for _, p := range []int{1, 2, 3, 4, 7} {
		buildDistributed(t, p, n, edges, func(dg *DistGraph) error {
			if dg.GlobalN != n {
				return fmt.Errorf("GlobalN = %d", dg.GlobalN)
			}
			if dg.M2 != ref.TotalWeight() {
				return fmt.Errorf("M2 = %g, want %g", dg.M2, ref.TotalWeight())
			}
			// Per-vertex data must match the shared-memory reference.
			for lv := int64(0); lv < dg.LocalN; lv++ {
				g := dg.Global(lv)
				if dg.K[lv] != ref.WeightedDegree(g) {
					return fmt.Errorf("K[%d] = %g, want %g", g, dg.K[lv], ref.WeightedDegree(g))
				}
				if dg.SelfLoop[lv] != ref.SelfLoopWeight(g) {
					return fmt.Errorf("selfloop mismatch at %d", g)
				}
				row, ws := dg.Row(lv)
				refN := ref.Neighbors(g)
				if len(row) != len(refN) {
					return fmt.Errorf("degree(%d) = %d, want %d", g, len(row), len(refN))
				}
				for i, s := range row {
					if (graph.Edge{To: dg.Target(s), W: ws[i]}) != refN[i] {
						return fmt.Errorf("neighbour %d of %d differs", i, g)
					}
				}
			}
			return nil
		})
	}
}

func TestBuildGhostTables(t *testing.T) {
	// Path graph 0-1-2-3 over 2 ranks: rank 0 owns {0,1}, ghost {2};
	// rank 1 owns {2,3}, ghost {1}.
	edges := []graph.RawEdge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}}
	buildDistributed(t, 2, 4, edges, func(dg *DistGraph) error {
		switch dg.Comm.Rank() {
		case 0:
			if len(dg.Ghosts) != 1 || dg.Ghosts[0] != 2 || dg.GhostOwner[0] != 1 {
				return fmt.Errorf("rank 0 ghosts: %v owners %v", dg.Ghosts, dg.GhostOwner)
			}
		case 1:
			if len(dg.Ghosts) != 1 || dg.Ghosts[0] != 1 || dg.GhostOwner[0] != 0 {
				return fmt.Errorf("rank 1 ghosts: %v owners %v", dg.Ghosts, dg.GhostOwner)
			}
		}
		return nil
	})
}

func TestBuildSelfLoopsStayLocal(t *testing.T) {
	edges := []graph.RawEdge{{U: 0, V: 0, W: 5}, {U: 1, V: 2, W: 1}}
	buildDistributed(t, 3, 3, edges, func(dg *DistGraph) error {
		if dg.Comm.Rank() == 0 {
			if dg.LocalN != 1 || dg.SelfLoop[0] != 5 || dg.K[0] != 5 {
				return fmt.Errorf("self loop mishandled: K=%v self=%v", dg.K, dg.SelfLoop)
			}
			if len(dg.Ghosts) != 0 {
				return fmt.Errorf("self loop created ghost: %v", dg.Ghosts)
			}
		}
		return nil
	})
}

func TestBuildMergesParallelChunkEdges(t *testing.T) {
	// The same edge appearing in two different ranks' chunks must merge.
	edges := []graph.RawEdge{{U: 0, V: 1, W: 1}, {U: 0, V: 1, W: 2}}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		chunk := []graph.RawEdge{edges[c.Rank()]}
		dg, err := Build(c, 2, chunk, nil)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if _, ws := dg.Row(0); len(dg.Slot) != 1 || ws[0] != 3 {
				return fmt.Errorf("edges not merged: slots %v weights %v", dg.Slot, ws)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBuildReleasesScatterArray: when merging shrinks the arcs to under half,
// the graph must not keep the pre-merge arrays alive behind its Slot and W.
func TestBuildReleasesScatterArray(t *testing.T) {
	var edges []graph.RawEdge
	for i := 0; i < 40; i++ { // a 4-ring, every edge ten times over
		edges = append(edges, graph.RawEdge{U: int64(i % 4), V: int64((i + 1) % 4), W: 1})
	}
	buildDistributed(t, 2, 4, edges, func(dg *DistGraph) error {
		if len(dg.Slot) != 4 || cap(dg.Slot) >= 2*len(dg.Slot) || cap(dg.W) >= 2*len(dg.W) {
			return fmt.Errorf("rank %d: %d arcs in arrays of %d slots and %d weights", dg.Comm.Rank(), len(dg.Slot), cap(dg.Slot), cap(dg.W))
		}
		return nil
	})
}

func TestBuildRejectsOutOfRange(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		var chunk []graph.RawEdge
		if c.Rank() == 0 {
			chunk = []graph.RawEdge{{U: 0, V: 99, W: 1}}
		}
		_, err := Build(c, 4, chunk, nil)
		if c.Rank() == 0 {
			if err == nil {
				return fmt.Errorf("expected out-of-range error")
			}
			// Propagate so Run closes the world and unblocks rank 1,
			// which is waiting in the Alltoall rank 0 never entered.
			return fmt.Errorf("rank 0 aborted as expected: %w", err)
		}
		return nil // rank 1: Build fails with ErrClosed once the world shuts
	})
	if err == nil {
		t.Fatal("expected the run to report rank 0's abort")
	}
}

// TestBuildRejectsBadWeights: a NaN, infinite or negative weight on rank 0's
// chunk fails Build and BuildFromArcs typed there, and the world's close fails
// the other rank, waiting in the exchange rank 0 never entered — no rank
// hangs. Unchecked, a NaN or infinite weight made the sweep never converge.
func TestBuildRejectsBadWeights(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), -1} {
		for _, fromArcs := range []bool{false, true} {
			errs := make([]error, 2)
			done := make(chan error, 1)
			go func() {
				done <- mpi.Run(2, func(c *mpi.Comm) error {
					bad := []graph.RawEdge{{U: 0, V: 1, W: 1}}
					if c.Rank() == 0 {
						bad = append(bad, graph.RawEdge{U: 1, V: 2, W: w})
					}
					var err error
					if fromArcs {
						arcs := make([]Arc, len(bad))
						for i, e := range bad {
							arcs[i] = Arc{From: e.U, To: e.V, W: e.W}
						}
						_, err = BuildFromArcs(c, 4, nil, arcs)
					} else {
						_, err = Build(c, 4, bad, nil)
					}
					errs[c.Rank()] = err
					return err
				})
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("weight %g (arcs %v): the world hung", w, fromArcs)
			}
			if !errors.Is(errs[0], ErrWeight) || errs[1] == nil {
				t.Fatalf("weight %g (arcs %v): rank errors %v, want ErrWeight at rank 0 and an error at rank 1", w, fromArcs, errs)
			}
		}
	}
}

// TestScaleRule is the scale rule (graph.Weights.Scale) as its three users
// apply it: graph.ScaleOf, seq.Certify and Build at 1 to 3 ranks, with the
// edges in order and reversed. Each picks the same exponent s, or fails with
// ErrWeight — Build on every rank (TestBuildRejectsBadWeights has the weights
// that are not finite and ≥ 0). Build's graph, gathered, is
// graph.FromRawEdges' arc for arc, weights bit for bit.
func TestScaleRule(t *testing.T) {
	path := func(ws ...float64) []graph.RawEdge {
		var out []graph.RawEdge
		for i, w := range ws {
			out = append(out, graph.RawEdge{U: int64(i), V: int64(i + 1), W: w})
		}
		return out
	}
	// The chain of core's heavy-chain gadget: 78 arcs, Σ⌈w⌉ = 40 000 038 < 2²⁶.
	var chain []float64
	for v := 0; v < 39; v++ {
		chain = append(chain, [2]float64{1e6, 1e-3}[v%2])
	}
	for _, c := range []struct {
		name  string
		edges []graph.RawEdge
		scale int // −1: ErrWeight
	}{
		{"integer", append(path(1, 7, 3, 2), graph.RawEdge{U: 2, V: 2, W: 5}), 0},
		{"zero and integer", path(0, 4, 0), 0},
		// 8 arcs, Σ⌈w⌉ = 8, the largest 1: 2⁴⁹·8 = 2⁵².
		{"in (0, 1]", path(1, 0.5, 0.3, 1e-3), 49},
		{"heavy chain", path(chain...), 26},
		{"integer past 2^53", path(1 << 52), -1},
		// Σ⌈w⌉ = 2⁵² + 2 and 4·2⁵¹ > 2⁵² even at s = 0.
		{"float past 2^52", path(1<<51, 0.5), -1},
	} {
		n := int64(len(c.edges) + 1)
		s, err := graph.ScaleOf(graph.Edges(c.edges))
		if c.scale < 0 {
			if !errors.Is(err, ErrWeight) {
				t.Fatalf("%s: ScaleOf gives %d, %v; want ErrWeight", c.name, s, err)
			}
		} else if s != c.scale || err != nil {
			t.Fatalf("%s: ScaleOf gives %d, %v; want %d", c.name, s, err, c.scale)
		}
		labels := make([]int64, n)
		cert, err := seq.Certify(n, graph.Edges(c.edges), labels)
		if c.scale < 0 && !errors.Is(err, ErrWeight) || c.scale >= 0 && (err != nil || cert.Scale != c.scale) {
			t.Fatalf("%s: Certify gives scale %d, %v", c.name, cert.Scale, err)
		}
		var want *graph.CSR
		if c.scale >= 0 {
			want = graph.FromRawEdges(n, c.edges)
			for _, e := range want.Edges {
				if e.W == 0 && c.name != "zero and integer" {
					t.Fatalf("%s: a weight rounds to 0", c.name)
				}
			}
		}
		reversed := slices.Clone(c.edges)
		slices.Reverse(reversed)
		for p := 1; p <= 3; p++ {
			for _, edges := range [][]graph.RawEdge{c.edges, reversed} {
				errs := make([]error, p)
				var got *graph.CSR
				_ = mpi.Run(p, func(comm *mpi.Comm) error {
					dg, err := Build(comm, n, chunkEdges(edges, comm.Rank(), p), nil)
					if err == nil {
						var g *graph.CSR
						if g, err = dg.GatherToRoot(); comm.Rank() == 0 {
							got = g
						}
					}
					errs[comm.Rank()] = err
					return err
				})
				for r, err := range errs {
					if c.scale < 0 && !errors.Is(err, ErrWeight) || c.scale >= 0 && err != nil {
						t.Fatalf("%s p=%d: rank %d: %v", c.name, p, r, err)
					}
				}
				if c.scale < 0 {
					continue
				}
				if !slices.Equal(got.Index, want.Index) || !slices.EqualFunc(got.Edges, want.Edges, func(a, b graph.Edge) bool {
					return a.To == b.To && math.Float64bits(a.W) == math.Float64bits(b.W)
				}) {
					t.Fatalf("%s p=%d: Build's graph %v, FromRawEdges' %v", c.name, p, got.Edges, want.Edges)
				}
			}
		}
	}
}

// skewedPartition splits [0, n) into p contiguous ranges of growing size
// (quadratic bounds): an uneven split for the tests that need one.
func skewedPartition(n int64, p int) *partition.Partition {
	bounds := make([]int64, p+1)
	for r := range bounds {
		bounds[r] = n * int64(r*r) / int64(p*p)
	}
	return &partition.Partition{Bounds: bounds}
}

func TestBuildWithCustomPartition(t *testing.T) {
	n, edges := gen.ErdosRenyi(60, 200, 3)
	p := 3
	part := skewedPartition(n, p)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		dg, err := Build(c, n, chunkEdges(edges, c.Rank(), p), part)
		if err != nil {
			return err
		}
		if err := dg.Validate(); err != nil {
			return err
		}
		lo, hi := part.Range(c.Rank())
		if dg.Base != lo || dg.LocalN != hi-lo {
			return fmt.Errorf("rank %d range [%d,%d) vs dg [%d,%d)", c.Rank(), lo, hi, dg.Base, dg.Base+dg.LocalN)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBuildPartitionShapeMismatch(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		_, err := Build(c, 10, nil, partition.ByVertexCount(5, 2))
		if err == nil {
			return fmt.Errorf("expected shape mismatch error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherToRootRoundTrip(t *testing.T) {
	n, edges := gen.ErdosRenyi(50, 150, 5)
	ref := gen.Build(n, edges)
	err := mpi.Run(3, func(c *mpi.Comm) error {
		dg, err := Build(c, n, chunkEdges(edges, c.Rank(), 3), nil)
		if err != nil {
			return err
		}
		got, err := dg.GatherToRoot()
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			if got != nil {
				return fmt.Errorf("non-root got a graph")
			}
			return nil
		}
		if got.N != ref.N || got.NumArcs() != ref.NumArcs() {
			return fmt.Errorf("shape: N %d/%d arcs %d/%d", got.N, ref.N, got.NumArcs(), ref.NumArcs())
		}
		for v := int64(0); v < n; v++ {
			a, b := got.Neighbors(v), ref.Neighbors(v)
			for i := range a {
				if a[i] != b[i] {
					return fmt.Errorf("vertex %d differs", v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBuildEmptyRank(t *testing.T) {
	// More ranks than vertices: high ranks own nothing but must still
	// participate.
	edges := []graph.RawEdge{{U: 0, V: 1, W: 1}}
	buildDistributed(t, 5, 2, edges, func(dg *DistGraph) error {
		if dg.Comm.Rank() >= 2 && dg.LocalN != 0 {
			return fmt.Errorf("rank %d owns %d vertices", dg.Comm.Rank(), dg.LocalN)
		}
		return nil
	})
}

func TestBuildFromBinaryFileSegments(t *testing.T) {
	// End-to-end: write a binary file, each rank streams its segment into
	// the build; the result must match the all-in-one build.
	n, edges := gen.ErdosRenyi(80, 300, 23)
	dir := t.TempDir()
	path := dir + "/g.bin"
	if err := gio.WriteBinary(path, n, edges); err != nil {
		t.Fatal(err)
	}
	ref := gen.Build(n, edges)
	const p = 4
	err := mpi.Run(p, func(c *mpi.Comm) error {
		m, edges, err := gio.Segment(path, c.Rank(), p)
		if err != nil {
			return err
		}
		dg, err := BuildStream(c, n, m, edges, nil)
		if err != nil {
			return err
		}
		if dg.M2 != ref.TotalWeight() {
			return fmt.Errorf("M2 mismatch")
		}
		return dg.Validate()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ---- The sort-based assembly, kept as the differential oracle ----
//
// This is the construction path the package shipped before the counting-sort
// pipeline: gather every arc a rank owns, sort the lot by (from, to), merge
// equal keys, collect ghosts through a map. It is sequential and needs no
// communicator — the test knows what every rank sends — which makes it an
// independent statement of what Build and BuildFromArcs must produce. The
// one deliberate difference from the shipped original is sort.SliceStable in
// place of sort.Slice: arrival order is (sender rank, send order), and a
// stable sort sums parallel arcs in it — which, weights being integers, any
// order would match bit for bit.

type oracleArc struct {
	from, to int64
	w        float64
}

// oracleGraph is the oracle's idea of one rank's DistGraph.
type oracleGraph struct {
	Base, LocalN int64
	Index        []int64
	Edges        []graph.Edge
	K, SelfLoop  []float64
	Ghosts       []int64
	GhostOwner   []int
	Slot         []int32
	LocalW       float64
}

// expandChunk lists the directed arcs Build sends for an undirected chunk,
// in send order.
func expandChunk(chunk []graph.RawEdge) []oracleArc {
	var out []oracleArc
	for _, e := range chunk {
		out = append(out, oracleArc{e.U, e.V, e.W})
		if e.U != e.V {
			out = append(out, oracleArc{e.V, e.U, e.W})
		}
	}
	return out
}

// oracleAssemble builds rank's share from sent[q], the arcs rank q emits in
// order (to whichever owner).
func oracleAssemble(part *partition.Partition, rank int, sent [][]oracleArc) *oracleGraph {
	var mine []oracleArc
	for _, arcs := range sent {
		for _, a := range arcs {
			if part.Owner(a.from) == rank {
				mine = append(mine, a)
			}
		}
	}
	sort.SliceStable(mine, func(i, j int) bool {
		if mine[i].from != mine[j].from {
			return mine[i].from < mine[j].from
		}
		return mine[i].to < mine[j].to
	})
	base, hi := part.Range(rank)
	og := &oracleGraph{
		Base: base, LocalN: hi - base,
		Index:    make([]int64, hi-base+1),
		K:        make([]float64, hi-base),
		SelfLoop: make([]float64, hi-base),
	}
	ghostIndex := make(map[int64]int32)
	for i := 0; i < len(mine); {
		j := i + 1
		w := mine[i].w
		for j < len(mine) && mine[j].from == mine[i].from && mine[j].to == mine[i].to {
			w += mine[j].w
			j++
		}
		from, to := mine[i].from, mine[i].to
		og.Edges = append(og.Edges, graph.Edge{To: to, W: w})
		lv := from - base
		og.Index[lv+1]++
		og.K[lv] += w
		if to == from {
			og.SelfLoop[lv] += w
		}
		if part.Owner(to) != rank {
			if _, seen := ghostIndex[to]; !seen {
				ghostIndex[to] = -1
				og.Ghosts = append(og.Ghosts, to)
			}
		}
		i = j
	}
	for lv := int64(0); lv < og.LocalN; lv++ {
		og.Index[lv+1] += og.Index[lv]
	}
	sort.Slice(og.Ghosts, func(i, j int) bool { return og.Ghosts[i] < og.Ghosts[j] })
	og.GhostOwner = make([]int, len(og.Ghosts))
	for i, g := range og.Ghosts {
		ghostIndex[g] = int32(i)
		og.GhostOwner[i] = part.Owner(g)
	}
	// The slot contract, stated through the map the shipped code no longer has.
	for _, e := range og.Edges {
		og.LocalW += e.W
		if part.Owner(e.To) == rank {
			og.Slot = append(og.Slot, int32(e.To-base))
		} else {
			og.Slot = append(og.Slot, int32(og.LocalN)+ghostIndex[e.To])
		}
	}
	return og
}

// diff compares a built DistGraph with the oracle field by field, weights
// bit for bit, and names the first entry that differs.
func (og *oracleGraph) diff(dg *DistGraph) error {
	if dg.Base != og.Base || dg.LocalN != og.LocalN {
		return fmt.Errorf("range [%d,+%d), oracle [%d,+%d)", dg.Base, dg.LocalN, og.Base, og.LocalN)
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameEdge := func(a, b graph.Edge) bool { return a.To == b.To && sameBits(a.W, b.W) }
	sameInt := func(a, b int64) bool { return a == b }
	for _, err := range []error{
		firstDiff("Index", dg.Index, og.Index, sameInt),
		firstDiff("arcs", arcsOf(dg), og.Edges, sameEdge),
		firstDiff("K", dg.K, og.K, sameBits),
		firstDiff("SelfLoop", dg.SelfLoop, og.SelfLoop, sameBits),
		firstDiff("Ghosts", dg.Ghosts, og.Ghosts, sameInt),
		firstDiff("GhostOwner", dg.GhostOwner, og.GhostOwner, func(a, b int) bool { return a == b }),
		firstDiff("Slot", dg.Slot, og.Slot, func(a, b int32) bool { return a == b }),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// arcsOf lists dg's arcs in CSR order as (global target, weight), the
// weights read through Row.
func arcsOf(dg *DistGraph) []graph.Edge {
	out := make([]graph.Edge, 0, len(dg.Slot))
	for lv := int64(0); lv < dg.LocalN; lv++ {
		row, ws := dg.Row(lv)
		for i, s := range row {
			out = append(out, graph.Edge{To: dg.Target(s), W: ws[i]})
		}
	}
	return out
}

func firstDiff[T any](field string, got, want []T, same func(a, b T) bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d entries, oracle %d", field, len(got), len(want))
	}
	for i := range got {
		if !same(got[i], want[i]) {
			return fmt.Errorf("%s[%d] = %v, oracle %v", field, i, got[i], want[i])
		}
	}
	return nil
}
