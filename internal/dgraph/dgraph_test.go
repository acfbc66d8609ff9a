package dgraph

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
	"distlouvain/internal/partition"
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
			if math.Abs(dg.M2-ref.TotalWeight()) > 1e-9 {
				return fmt.Errorf("M2 = %g, want %g", dg.M2, ref.TotalWeight())
			}
			// Per-vertex data must match the shared-memory reference.
			for lv := int64(0); lv < dg.LocalN; lv++ {
				g := dg.Global(lv)
				if math.Abs(dg.K[lv]-ref.WeightedDegree(g)) > 1e-9 {
					return fmt.Errorf("K[%d] = %g, want %g", g, dg.K[lv], ref.WeightedDegree(g))
				}
				if math.Abs(dg.SelfLoop[lv]-ref.SelfLoopWeight(g)) > 1e-9 {
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

func TestBuildWithCustomPartition(t *testing.T) {
	n, edges := gen.ErdosRenyi(60, 200, 3)
	ref := gen.Build(n, edges)
	degrees := make([]int64, n)
	for v := int64(0); v < n; v++ {
		degrees[v] = ref.Degree(v)
	}
	p := 3
	part := partition.ByEdgeCount(degrees, p)
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
	// End-to-end: write a binary file, each rank reads its segment and
	// builds; the result must match the all-in-one build.
	n, edges := gen.ErdosRenyi(80, 300, 23)
	dir := t.TempDir()
	path := dir + "/g.bin"
	if err := gio.WriteBinary(path, n, edges); err != nil {
		t.Fatal(err)
	}
	ref := gen.Build(n, edges)
	const p = 4
	err := mpi.Run(p, func(c *mpi.Comm) error {
		chunk, err := gio.ReadSegment(path, c.Rank(), p)
		if err != nil {
			return err
		}
		dg, err := Build(c, n, chunk, nil)
		if err != nil {
			return err
		}
		if math.Abs(dg.M2-ref.TotalWeight()) > 1e-9 {
			return fmt.Errorf("M2 mismatch")
		}
		return dg.Validate()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEdgeBalancedPartition(t *testing.T) {
	// A star graph: the hub carries nearly all slots, so the hub's range
	// should be small and the partition must agree across ranks.
	n := int64(100)
	var edges []graph.RawEdge
	for v := int64(1); v < n; v++ {
		edges = append(edges, graph.RawEdge{U: 0, V: v, W: 1})
	}
	const p = 4
	var bounds [][]int64
	var mu sync.Mutex
	err := mpi.Run(p, func(c *mpi.Comm) error {
		part, err := EdgeBalancedPartition(c, n, chunkEdges(edges, c.Rank(), p))
		if err != nil {
			return err
		}
		if err := part.Validate(); err != nil {
			return err
		}
		mu.Lock()
		bounds = append(bounds, append([]int64(nil), part.Bounds...))
		mu.Unlock()
		// Build with it to prove it's usable end to end.
		dg, err := Build(c, n, chunkEdges(edges, c.Rank(), p), part)
		if err != nil {
			return err
		}
		return dg.Validate()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(bounds); i++ {
		for j := range bounds[0] {
			if bounds[i][j] != bounds[0][j] {
				t.Fatalf("ranks computed different partitions: %v vs %v", bounds[i], bounds[0])
			}
		}
	}
	// The hub (vertex 0, degree 99 of 198 slots) should sit alone or
	// nearly alone in rank 0's range.
	if bounds[0][1] > 5 {
		t.Fatalf("rank 0 owns too many vertices for a star: bounds %v", bounds[0])
	}
}

func TestEdgeBalancedPartitionRejectsBadEdges(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		_, err := EdgeBalancedPartition(c, 3, []graph.RawEdge{{U: 0, V: 9, W: 1}})
		if err == nil {
			return fmt.Errorf("expected range error")
		}
		return nil
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
// place of sort.Slice: arrival order is (sender rank, send order), so a
// stable sort makes the float summation order of parallel arcs the documented
// one instead of whatever pdqsort left behind.

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
		if !part.Owns(rank, to) {
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
		if part.Owns(rank, e.To) {
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
