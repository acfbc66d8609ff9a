package dgraph

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
)

// againstOracle runs build on p in-process ranks and compares every rank's
// result with the sort-based oracle fed sent[q], the arcs rank q emits.
func againstOracle(p int, n int64, sent [][]oracleArc, build func(c *mpi.Comm) (*DistGraph, error)) error {
	var total float64
	want := make([]*oracleGraph, p)
	for r := range want {
		lo, hi := gio.SegmentRange(n, r, p)
		want[r] = oracleAssemble(lo, hi, sent)
		total += want[r].LocalW
	}
	var mu sync.Mutex
	m2 := make([]float64, p)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		dg, err := build(c)
		if err != nil {
			return err
		}
		if err := dg.Validate(); err != nil {
			return err
		}
		if dg.GlobalN != n {
			return fmt.Errorf("GlobalN = %d, want %d", dg.GlobalN, n)
		}
		mu.Lock()
		m2[c.Rank()] = dg.M2
		mu.Unlock()
		return want[c.Rank()].diff(dg)
	})
	if err != nil {
		return err
	}
	for r := range m2 {
		if math.Float64bits(m2[r]) != math.Float64bits(m2[0]) {
			return fmt.Errorf("M2 differs across ranks: %v", m2)
		}
	}
	if m2[0] != total {
		return fmt.Errorf("M2 = %g, oracle %g", m2[0], total)
	}
	return nil
}

// buildAgainstOracle is againstOracle for Build over the chunks, whose weights
// the oracle scales by the rule (graph.Weights.Scale) first.
func buildAgainstOracle(n int64, chunks [][]graph.RawEdge) error {
	var f graph.Weights
	for _, chunk := range chunks {
		for _, e := range chunk {
			f.AddEdge(e)
		}
	}
	s, err := f.Scale()
	if err != nil {
		return err
	}
	sent := make([][]oracleArc, len(chunks))
	for q, chunk := range chunks {
		sent[q] = expandChunk(chunk)
		for i := range sent[q] {
			if f.Fractional > 0 {
				sent[q][i].w = graph.Quantize(sent[q][i].w, s)
			}
		}
	}
	return againstOracle(len(chunks), n, sent, func(c *mpi.Comm) (*DistGraph, error) {
		return Build(c, n, chunks[c.Rank()], nil)
	})
}

// arcsAgainstOracle is againstOracle for BuildFromArcs over the arcs, whose
// weights the oracle scales by the rule (graph.Weights.Scale) first.
func arcsAgainstOracle(n int64, perRank [][]Arc) error {
	var f graph.Weights
	for _, arcs := range perRank {
		for _, a := range arcs {
			f.Add(a.W, 1)
		}
	}
	s, err := f.Scale()
	if err != nil {
		return err
	}
	sent := make([][]oracleArc, len(perRank))
	for q, arcs := range perRank {
		for _, a := range arcs {
			sent[q] = append(sent[q], oracleArc{a.From, a.To, graph.Quantize(a.W, s)})
		}
	}
	return againstOracle(len(perRank), n, sent, func(c *mpi.Comm) (*DistGraph, error) {
		return BuildFromArcs(c, n, perRank[c.Rank()])
	})
}

// scatterings deals an edge list to p ranks in several ways: contiguous
// file segments, round robin, a seeded shuffle cut at random points (ranks
// may come up empty), and everything on the last rank.
func scatterings(edges []graph.RawEdge, p int, seed int64) map[string][][]graph.RawEdge {
	out := map[string][][]graph.RawEdge{}
	seg := make([][]graph.RawEdge, p)
	rr := make([][]graph.RawEdge, p)
	last := make([][]graph.RawEdge, p)
	for r := 0; r < p; r++ {
		seg[r] = chunkEdges(edges, r, p)
	}
	for i, e := range edges {
		rr[i%p] = append(rr[i%p], e)
	}
	last[p-1] = edges
	rng := rand.New(rand.NewSource(seed))
	shuffled := append([]graph.RawEdge(nil), edges...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	cuts := make([]int, p+1)
	for r := 1; r < p; r++ {
		cuts[r] = rng.Intn(len(shuffled) + 1)
	}
	cuts[p] = len(shuffled)
	for r := 1; r <= p; r++ {
		if cuts[r] < cuts[r-1] {
			cuts[r] = cuts[r-1]
		}
	}
	cut := make([][]graph.RawEdge, p)
	for r := 0; r < p; r++ {
		cut[r] = shuffled[cuts[r]:cuts[r+1]]
	}
	out["segments"], out["round-robin"], out["shuffled-cuts"], out["last-rank"] = seg, rr, cut, last
	return out
}

// quantized is edges with the weights the scale rule gives them, as Build holds
// them: the input BuildFromArcs takes.
func quantized(edges []graph.RawEdge) []graph.RawEdge {
	s, err := graph.ScaleOf(graph.Edges(edges))
	if err != nil {
		panic(err)
	}
	out := slices.Clone(edges)
	for i := range out {
		out[i].W = graph.Quantize(out[i].W, s)
	}
	return out
}

// floatWeights replaces the weights with values whose sums depend on the
// order of addition.
func floatWeights(edges []graph.RawEdge) []graph.RawEdge {
	out := make([]graph.RawEdge, len(edges))
	for i, e := range edges {
		e.W = 0.1 + 0.37*float64(i%13) + 1e-7*float64(i)
		out[i] = e
	}
	return out
}

type graphCase struct {
	name  string
	n     int64
	edges []graph.RawEdge
}

func differentialGraphs(t testing.TB) []graphCase {
	var cases []graphCase
	n, edges := gen.ErdosRenyi(60, 240, 17)
	cases = append(cases, graphCase{"erdos-renyi", n, edges})
	n, edges, err := gen.RMAT(7, 8, .57, .19, .19, .05, 3) // parallel edges, self loops, untouched vertices
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, graphCase{"rmat", n, edges})
	cases = append(cases, graphCase{"rmat-float", n, floatWeights(edges)})
	n, edges = gen.BandedMesh(50, 3)
	cases = append(cases, graphCase{"band", n, edges})
	n, edges, _ = gen.PlantedPartition(4, 12, 0.5, 0.05, 19)
	cases = append(cases, graphCase{"planted-float", n, floatWeights(edges)})
	// Hand-made: the edge 0–1 three times and 7–0 twice (different chunks
	// and ranks under every scattering), self loops alone and repeated,
	// vertices 5 and 6 of degree zero, a self loop on the last vertex.
	cases = append(cases, graphCase{"hand-made", 9, []graph.RawEdge{
		{U: 0, V: 1, W: 1}, {U: 2, V: 2, W: 4}, {U: 7, V: 0, W: 2}, {U: 1, V: 0, W: 8},
		{U: 3, V: 4, W: 1}, {U: 2, V: 2, W: 16}, {U: 0, V: 7, W: 32}, {U: 8, V: 8, W: 64},
		{U: 0, V: 1, W: 128}, {U: 4, V: 8, W: 256}, {U: 3, V: 1, W: 512},
	}})
	// A hub past radixMinRow arcs — parallel edges, float weights, targets on
	// both sides of the 11-bit digit boundary — among 3000 vertices, so its
	// row takes the radix sort and every other rank holds ghosts at both ends
	// of the ID space.
	hub := []graph.RawEdge{{U: 0, V: 2999, W: 1}}
	for i := int64(0); i < 700; i++ {
		hub = append(hub, graph.RawEdge{U: 1500, V: (i * 37) % 3000, W: 1}, graph.RawEdge{U: (i * 53) % 2500, V: 1500, W: 2})
	}
	cases = append(cases, graphCase{"hub-float", 3000, floatWeights(hub)})
	cases = append(cases, graphCase{"two-vertices", 2, []graph.RawEdge{{U: 0, V: 1, W: 1}, {U: 1, V: 1, W: 2}}})
	cases = append(cases, graphCase{"no-edges", 5, nil})
	return cases
}

// TestBuildMatchesSortOracle is the differential suite: the counting-sort
// assembly must reproduce the sort-based oracle field by field — weights bit
// for bit — for every graph, rank count and scattering of the chunks.
func TestBuildMatchesSortOracle(t *testing.T) {
	for _, gc := range differentialGraphs(t) {
		for p := 1; p <= 4; p++ {
			for sname, chunks := range scatterings(gc.edges, p, int64(p)) {
				if err := buildAgainstOracle(gc.n, chunks); err != nil {
					t.Fatalf("%s p=%d chunks=%s: %v", gc.name, p, sname, err)
				}
			}
		}
	}
}

// TestBuildFromArcsMatchesSortOracle feeds BuildFromArcs directed arcs in
// shuffled order, dealt to ranks with no regard for ownership.
func TestBuildFromArcsMatchesSortOracle(t *testing.T) {
	for _, gc := range differentialGraphs(t) {
		for p := 1; p <= 4; p++ {
			rng := rand.New(rand.NewSource(int64(7 * p)))
			all := expandChunk(quantized(gc.edges))
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			perRank := make([][]Arc, p)
			for _, a := range all {
				r := rng.Intn(p)
				perRank[r] = append(perRank[r], Arc{From: a.from, To: a.to, W: a.w})
			}
			if err := arcsAgainstOracle(gc.n, perRank); err != nil {
				t.Fatalf("%s p=%d: %v", gc.name, p, err)
			}
		}
	}
}

// TestAssembleIntoRecycledStorage: assembling into a recycled graph must give
// the graph a fresh assembly gives, field for field and weights bit for bit,
// whatever the recycled arrays held and however large they were — sentinel
// garbage with room to spare (the arrays are re-sliced, and must be the
// recycled ones), the same garbage in arrays too small by half (they are
// reallocated), and the previous input's graph through a Shuffle kept and
// Reset from one input to the next, as core's rebuilds do. The recycled graph
// keeps its shape and loses its arrays.
func TestAssembleIntoRecycledStorage(t *testing.T) {
	cases := differentialGraphs(t)
	for p := 1; p <= 4; p++ {
		perRank := make([][][]Arc, len(cases)) // perRank[i][r]: case i's arcs held by rank r
		for i, gc := range cases {
			rng := rand.New(rand.NewSource(int64(p)))
			perRank[i] = make([][]Arc, p)
			for _, a := range expandChunk(quantized(gc.edges)) {
				r := rng.Intn(p)
				perRank[i][r] = append(perRank[i][r], Arc{From: a.from, To: a.to, W: a.w})
			}
		}
		err := mpi.Run(p, func(c *mpi.Comm) error {
			kept := NewShuffle(c, 1, 1, false)
			var prev *DistGraph
			for i, gc := range cases {
				arcs := perRank[i][c.Rank()]
				if err := recycledMatchesFresh(c, gc.n, arcs); err != nil {
					return fmt.Errorf("%s: %w", gc.name, err)
				}
				fresh, err := BuildFromArcs(c, gc.n, arcs)
				if err != nil {
					return err
				}
				got, err := shuffleInto(kept, gc.n, arcs, prev)
				if err != nil {
					return err
				}
				if err := sameGraph(got, fresh); err != nil {
					return fmt.Errorf("%s into the previous graph: %w", gc.name, err)
				}
				prev = got
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// recycledMatchesFresh builds arcs fresh and then into sentinelSpare's two
// graphs, with spare room and too small, and holds each result to the fresh
// one (collective). Slot and W must be the recycled arrays unless merging
// left fewer than half of the arcs placed, when they are copied out.
func recycledMatchesFresh(c *mpi.Comm, n int64, arcs []Arc) error {
	fresh, err := BuildFromArcs(c, n, arcs)
	if err != nil {
		return err
	}
	if err := fresh.Validate(); err != nil {
		return err
	}
	sent := make([]int64, c.Size())
	for _, a := range arcs {
		sent[fresh.Owner(a.From)]++
	}
	placed, err := c.AllreduceInt64s(sent, mpi.OpSum)
	if err != nil {
		return err
	}
	cloned := len(fresh.Slot) < int(placed[c.Rank()])/2
	s := NewShuffle(c, n, 1, false)
	for _, short := range []bool{false, true} {
		spare := sentinelSpare(fresh, short)
		had := *spare
		got, err := shuffleInto(s, n, arcs, spare)
		if err != nil {
			return err
		}
		if err := got.Validate(); err != nil {
			return fmt.Errorf("short=%v: %w", short, err)
		}
		if err := sameGraph(got, fresh); err != nil {
			return fmt.Errorf("short=%v: %w", short, err)
		}
		if spare.Index != nil || spare.Slot != nil || spare.W != nil || spare.K != nil || spare.SelfLoop != nil || spare.Ghosts != nil {
			return fmt.Errorf("short=%v: the recycled graph kept arrays", short)
		}
		if spare.Base != had.Base || spare.LocalN != had.LocalN || spare.GlobalN != had.GlobalN {
			return fmt.Errorf("short=%v: the recycled graph lost its shape", short)
		}
		if short {
			continue
		}
		for _, same := range []struct {
			name string
			ok   bool
		}{
			{"Index", sameArray(got.Index, had.Index)},
			{"K", sameArray(got.K, had.K)},
			{"SelfLoop", sameArray(got.SelfLoop, had.SelfLoop)},
			{"Slot", cloned || sameArray(got.Slot, had.Slot)},
			{"W", cloned || sameArray(got.W, had.W)},
			{"Ghosts", sameArray(got.Ghosts, had.Ghosts)},
		} {
			if !same.ok {
				return fmt.Errorf("%s was reallocated although the recycled one had room", same.name)
			}
		}
	}
	return nil
}

// shuffleInto is BuildFromArcs on a kept shuffle: s is Reset to [0, n),
// filled with arcs and exchanged into recycle.
func shuffleInto(s *Shuffle, n int64, arcs []Arc, recycle *DistGraph) (*DistGraph, error) {
	s.Reset(n, 1, false)
	w := s.Writer(0)
	for _, a := range arcs {
		w.Put(s.Owner(a.From), a.From, a.To, a.W)
	}
	return s.Exchange(recycle)
}

// sentinelSpare returns a graph of g's shape for the assembly to recycle,
// every array filled with sentinel garbage — NaN weights and degrees, −1
// slots and ghosts, row offsets past any arc — and sized two entries
// for each of g's plus seven, or, when short, half of g's (the placement
// arrays the assembly needs are at least as long as g's Slot and W).
func sentinelSpare(g *DistGraph, short bool) *DistGraph {
	size := func(k int) int {
		if short {
			return k / 2
		}
		return 2*k + 7
	}
	nan := math.NaN()
	return &DistGraph{
		Comm: g.Comm, GlobalN: g.GlobalN, M2: nan, Base: g.Base, LocalN: g.LocalN,
		Index:    filled(size(len(g.Index)), int64(math.MaxInt64)),
		Slot:     filled(size(len(g.Slot)), int32(-1)),
		W:        filled(size(len(g.W)), nan),
		K:        filled(size(len(g.K)), nan),
		SelfLoop: filled(size(len(g.SelfLoop)), nan),
		Ghosts:   filled(size(len(g.Ghosts)), int64(-1)),
	}
}

func filled[T any](k int, v T) []T {
	s := make([]T, k)
	for i := range s {
		s[i] = v
	}
	return s
}

// sameArray reports whether got is empty or starts where recycled does.
func sameArray[T any](got, recycled []T) bool {
	return len(got) == 0 || (len(recycled) > 0 && &got[0] == &recycled[0])
}

// sameGraph compares two assemblies of one input field for field, weights
// bit for bit.
func sameGraph(got, want *DistGraph) error {
	if got.GlobalN != want.GlobalN || math.Float64bits(got.M2) != math.Float64bits(want.M2) {
		return fmt.Errorf("GlobalN %d, M2 %v; want %d, %v", got.GlobalN, got.M2, want.GlobalN, want.M2)
	}
	og := &oracleGraph{
		Base: want.Base, LocalN: want.LocalN, Index: want.Index, Edges: arcsOf(want), K: want.K, SelfLoop: want.SelfLoop,
		Ghosts: want.Ghosts, Slot: want.Slot,
	}
	return og.diff(got)
}

// TestAssembleRowsInGlobalOrder: read through Target, every row of the slot
// CSR is graph.FromRawEdges' row, targets ascending and weights bit for bit —
// at 1 to 4 ranks, every rank but the first holding ghosts below its owned
// range and every rank but the last ghosts above it, with integer weights and
// with float ones (quarter-integers, which Build scales to integers as
// FromRawEdges does), with parallel arcs and self loops, assembled fresh and
// then, at the weights Build gave them, twice into the recycled previous graph
// through one kept shuffle. And an unweighted Build
// with no parallel arcs keeps 4 bytes per arc: the slot, and no W.
func TestAssembleRowsInGlobalOrder(t *testing.T) {
	const n = 240
	rng := rand.New(rand.NewSource(9))
	var integer, quarter []graph.RawEdge
	for i := 0; i < 1500; i++ {
		integer = append(integer, graph.RawEdge{U: rng.Int63n(n), V: rng.Int63n(n), W: float64(1 + rng.Intn(4))})
	}
	for v := int64(0); v < n; v += 7 {
		u := (13*v + 5) % n
		integer = append(integer, graph.RawEdge{U: v, V: v, W: 3}, graph.RawEdge{U: v, V: u, W: 1}, graph.RawEdge{U: u, V: v, W: 2})
	}
	for _, e := range integer {
		e.W = float64(1+rng.Intn(40)) / 4
		quarter = append(quarter, e)
	}
	check := func(dg *DistGraph, want *graph.CSR) error {
		if err := dg.Validate(); err != nil {
			return err
		}
		for lv := int64(0); lv < dg.LocalN; lv++ {
			row, ws := dg.Row(lv)
			ref := want.Neighbors(dg.Global(lv))
			if len(row) != len(ref) {
				return fmt.Errorf("vertex %d has %d arcs, want %d", dg.Global(lv), len(row), len(ref))
			}
			for i, s := range row {
				if dg.Target(s) != ref[i].To || math.Float64bits(ws[i]) != math.Float64bits(ref[i].W) {
					return fmt.Errorf("arc %d of vertex %d is (%d, %v), want (%d, %v)", i, dg.Global(lv), dg.Target(s), ws[i], ref[i].To, ref[i].W)
				}
			}
		}
		return nil
	}
	for _, tc := range []struct {
		name  string
		edges []graph.RawEdge
	}{{"integer", integer}, {"float", quarter}} {
		want := graph.FromRawEdges(n, tc.edges)
		for p := 1; p <= 4; p++ {
			err := mpi.Run(p, func(c *mpi.Comm) error {
				chunk := chunkEdges(tc.edges, c.Rank(), p)
				dg, err := Build(c, n, chunk, nil)
				if err != nil {
					return err
				}
				if err := check(dg, want); err != nil {
					return fmt.Errorf("rank %d, fresh: %w", c.Rank(), err)
				}
				below, above := len(dg.Ghosts) > 0 && dg.Ghosts[0] < dg.Base, len(dg.Ghosts) > 0 && dg.Ghosts[len(dg.Ghosts)-1] >= dg.Base+dg.LocalN
				if below != (c.Rank() > 0) || above != (c.Rank() < p-1) {
					return fmt.Errorf("rank %d: ghosts below its range %v, above %v", c.Rank(), below, above)
				}
				var arcs []Arc
				for _, a := range expandChunk(chunkEdges(quantized(tc.edges), c.Rank(), p)) {
					arcs = append(arcs, Arc{From: a.from, To: a.to, W: a.w})
				}
				kept := NewShuffle(c, n, 1, false)
				for round := 1; round <= 2; round++ {
					if dg, err = shuffleInto(kept, n, arcs, dg); err != nil {
						return err
					}
					if err := check(dg, want); err != nil {
						return fmt.Errorf("rank %d, recycled %d: %w", c.Rank(), round, err)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s p=%d: %v", tc.name, p, err)
			}
		}
	}

	n2, mesh := gen.BandedMesh(50, 3)
	if g := graph.FromRawEdges(n2, mesh); g.NumArcs() != int64(2*len(mesh)) {
		t.Fatalf("the mesh has parallel edges or self loops: %d arcs from %d edges", g.NumArcs(), len(mesh))
	}
	err := mpi.Run(3, func(c *mpi.Comm) error {
		dg, err := Build(c, n2, chunkEdges(mesh, c.Rank(), 3), nil)
		if err != nil {
			return err
		}
		if bytes := 4*cap(dg.Slot) + 8*cap(dg.W); dg.W != nil || bytes != 4*len(dg.Slot) {
			return fmt.Errorf("rank %d: %d arcs hold %d bytes of slots and weights, want 4 per arc and no W", c.Rank(), len(dg.Slot), bytes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParallelArcSummationOrder: parallel arcs sum to the same bits in every
// order — across ranks either way, within a chunk, a chunk then a later rank —
// although 0.1, 0.2 and 0.3 sum to different bits left to right and right to
// left: Build scales each arc's weight to an integer first (s = 51 here: six
// arcs, Σ⌈w⌉ = 6, the largest 0.3), and a sum of integers is exact.
func TestParallelArcSummationOrder(t *testing.T) {
	a, b, c := 0.1, 0.2, 0.3
	if (a+b)+c == (c+b)+a {
		t.Fatal("the chosen weights do not distinguish summation orders")
	}
	want := graph.Quantize(a, 51) + graph.Quantize(b, 51) + graph.Quantize(c, 51)
	edge := func(w float64) []graph.RawEdge { return []graph.RawEdge{{U: 0, V: 3, W: w}} }
	cases := []struct {
		name   string
		chunks [][]graph.RawEdge
		want   float64
	}{
		{"across ranks, ascending", [][]graph.RawEdge{edge(a), edge(b), edge(c)}, want},
		{"across ranks, descending", [][]graph.RawEdge{edge(c), edge(b), edge(a)}, want},
		{"within a chunk", [][]graph.RawEdge{nil, {{U: 0, V: 3, W: c}, {U: 3, V: 0, W: b}, {U: 0, V: 3, W: a}}, nil}, want},
		{"chunk then later rank", [][]graph.RawEdge{nil, {{U: 0, V: 3, W: b}, {U: 0, V: 3, W: c}}, edge(a)}, want},
	}
	for _, tc := range cases {
		err := mpi.Run(3, func(c *mpi.Comm) error {
			dg, err := Build(c, 4, tc.chunks[c.Rank()], nil)
			if err != nil {
				return err
			}
			for lv := int64(0); lv < dg.LocalN; lv++ {
				row, ws := dg.Row(lv)
				for i, s := range row {
					if math.Float64bits(ws[i]) != math.Float64bits(tc.want) {
						return fmt.Errorf("arc (%d,%d) weighs %b, want %b", dg.Global(lv), dg.Target(s), ws[i], tc.want)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := buildAgainstOracle(4, tc.chunks); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestSortRowIsStable holds the hand-written row sorts to the standard
// library's stable sort by key over row lengths on both sides of every run
// and merge-width boundary and of radixMinRow, with few distinct keys so ties
// are everywhere, and with key spaces on both sides of a radix digit boundary
// up to the whole int32 slot space. A word's low half is its arrival.
func TestSortRowIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	scratch := make([]uint64, 5000)
	for _, n := range []int{0, 1, 2, 23, 24, 25, 47, 48, 49, 96, 97, 200, radixMinRow - 1, radixMinRow, radixMinRow + 1, 1000, 5000} {
		for _, ids := range []int64{1, 3, 40, 2047, 2048, 2049, 1 << 22, 1<<22 + 1, math.MaxInt32} {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = rng.Int63n(ids)
			}
			if n >= 2 {
				keys[0], keys[n-1] = ids-1, 0 // the ends of the key space, and never born sorted
			}
			row := make([]uint64, n)
			for i, k := range keys {
				row[i] = uint64(k)<<32 | uint64(i)
			}
			want := slices.Clone(row)
			slices.SortStableFunc(want, func(a, b uint64) int { return cmp.Compare(a>>32, b>>32) })
			sortRow(row, scratch, ids)
			if !slices.Equal(row, want) {
				t.Fatalf("n=%d ids=%d: got %v, want %v", n, ids, row, want)
			}
		}
	}
}

// TestSortIDsMatchesSortOracle holds the ghost table's radix sort to
// slices.Sort on candidate sets from empty to thousands (there is no
// small-input cutoff: one path at every size), with the IDs 0 and n−1
// present, duplicates everywhere, and n on both sides of each digit boundary
// a 64-bit ID space has.
func TestSortIDsMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int64{1, 2, 2047, 2048, 2049, 1<<22 - 1, 1 << 22, 1<<22 + 1, 1 << 33, 1<<44 + 1, math.MaxInt64} {
		for _, k := range []int{0, 1, 2, 3, 100, 4000} {
			ids := make([]int64, k)
			for i := range ids {
				ids[i] = rng.Int63n(n)
				if i%3 == 1 {
					ids[i] = ids[i-1] // a ghost is a candidate once per arc that names it
				}
			}
			if k >= 2 {
				ids[0], ids[k-1] = n-1, 0
			}
			want := slices.Clone(ids)
			slices.Sort(want)
			got := sortIDs(ids, make([]int64, k), n)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d k=%d: got %v, want %v", n, k, got, want)
			}
		}
	}
}

// TestGhostTableCornerCases: zero ghosts (one rank; ranks with no edge between
// them), rows whose every target is remote, and ghosts at the two ends of the
// ID space, each validated and held to the oracle.
func TestGhostTableCornerCases(t *testing.T) {
	var allRemote, ends []graph.RawEdge
	for i := int64(0); i < 40; i++ {
		allRemote = append(allRemote, graph.RawEdge{U: i, V: 40 + (i*7)%40, W: 1}, graph.RawEdge{U: i, V: 40 + (i*11)%40, W: 2})
	}
	ends = append(ends, graph.RawEdge{U: 0, V: 79, W: 1}, graph.RawEdge{U: 39, V: 40, W: 1})
	local := []graph.RawEdge{{U: 0, V: 1, W: 1}, {U: 41, V: 42, W: 1}}
	for name, edges := range map[string][]graph.RawEdge{"all-remote rows": allRemote, "ends of the ID space": ends, "no cut edge": local} {
		for _, p := range []int{1, 2, 4} {
			chunks := make([][]graph.RawEdge, p)
			for r := range chunks {
				chunks[r] = chunkEdges(edges, r, p)
			}
			if err := buildAgainstOracle(80, chunks); err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
		}
	}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		dg, err := Build(c, 80, chunkEdges(allRemote, c.Rank(), 2), nil)
		if err != nil {
			return err
		}
		for _, s := range dg.Slot {
			if to := dg.Target(s); dg.IsLocal(to) || int64(s) < dg.LocalN {
				return fmt.Errorf("rank %d: arc to %d is not a ghost arc", c.Rank(), to)
			}
		}
		if len(dg.Ghosts) == 0 {
			return fmt.Errorf("rank %d holds no ghosts", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// frame encodes arcs in the given layout, as a statement of the format
// independent of ArcWriter: the layout byte, then per arc the source and the
// target (uint32 each, int64 in the 64-bit layout) and, unless the layout is
// unit-weight, the weight's bits.
func frame(layout byte, arcs ...oracleArc) []byte {
	f := []byte{layout}
	for _, a := range arcs {
		if layout == arcs64 {
			f = binary.LittleEndian.AppendUint64(f, uint64(a.from))
			f = binary.LittleEndian.AppendUint64(f, uint64(a.to))
		} else {
			f = binary.LittleEndian.AppendUint32(f, uint32(a.from))
			f = binary.LittleEndian.AppendUint32(f, uint32(a.to))
		}
		if layout != arcsUnit32 {
			f = binary.LittleEndian.AppendUint64(f, math.Float64bits(a.w))
		}
	}
	return f
}

// assembleAtRank0 hands a copy of recv (the assembly consumes its frames) to
// the assembly of rank 0 in a 2-rank world, as the owner of [0, hi),
// recycling spare (nil: nothing to recycle); rank 1 holds no arcs and only
// joins rank 0's allreduces — M2's and, when its lanes call for the scale
// rule, scaleOf's and the merged M2's — so a frame rank 0 refuses fails the
// run in them. An owned range shorter than the even split's is what lets a
// vertex space past 2³² reach the 64-bit layout in a test.
func assembleAtRank0(n, hi int64, recv [][]byte, spare *DistGraph) (*DistGraph, error) {
	recv = slices.Clone(recv)
	for q, f := range recv {
		recv[q] = slices.Clone(f)
	}
	var dg *DistGraph
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			lanes, err := c.AllreduceFloat64s(make([]float64, 2), mpi.OpSum)
			if err != nil || lanes[1] == 0 && lanes[0] < 1<<53 {
				return nil
			}
			v, err := c.AllreduceFloat64s(make([]float64, 2), mpi.OpSum)
			if err != nil {
				return nil
			}
			wmax, err := c.AllreduceFloat64(0, mpi.OpMax)
			if err != nil {
				return nil
			}
			if _, err := (graph.Weights{Arcs: v[0], Sum: lanes[0], CeilSum: v[1], Max: wmax, Fractional: lanes[1]}).Scale(); err == nil {
				c.AllreduceFloat64(0, mpi.OpSum)
			}
			return nil
		}
		s := NewShuffle(c, n, 1, false)
		if spare == nil {
			spare = &DistGraph{}
		}
		frames := make([][][]byte, len(recv))
		for q := range recv {
			frames[q] = recv[q : q+1]
		}
		var err error
		dg, err = s.assemble(0, hi, frames, spare)
		return err
	})
	return dg, err
}

// TestAssembleRejectsMalformedBuffers: every frame a sender could not have
// produced fails with ErrMalformedArcs naming the rank it came from — an
// unknown layout byte, a body that is not a whole number of records, a layout
// byte with no records, 32-bit records in a vertex space that needs 64 bits
// (and 64-bit ones where 32 suffice), a source the receiving rank does not
// own, a target outside the vertex space — also when the bad arc is the last
// one of the last frame, after thousands of good ones, because validation is
// a pass of its own ahead of the scatter: a scatter of the unowned source
// would index past the rows instead of failing typed.
func TestAssembleRejectsMalformedBuffers(t *testing.T) {
	good := make([]oracleArc, 3000)
	for i := range good {
		good[i] = oracleArc{int64(i % 4), int64((i + 1) % 4), 1}
	}
	weighted := frame(arcsWeight32, good...)
	const wide = 1<<33 + 5
	cases := []struct {
		name   string
		n      int64 // rank 0 owns [0, 4) of it
		recv   [][]byte
		sender int
	}{
		{"truncated", 8, [][]byte{weighted[:len(weighted)-1]}, 0},
		{"one stray byte", 8, [][]byte{{7}}, 0},
		{"unknown layout byte", 8, [][]byte{frame(arcsUnit32, good...), append([]byte{9}, weighted[1:]...)}, 1},
		{"layout byte zero", 8, [][]byte{nil, append([]byte{0}, weighted[1:]...)}, 1},
		{"body not whole records", 8, [][]byte{frame(arcsUnit32, good...), frame(arcsUnit32, good[:5]...)[:37]}, 1},
		{"header with no records", 8, [][]byte{weighted, {arcsUnit32}}, 1},
		{"32-bit records past 2^32 vertices", wide, [][]byte{frame(arcs64, good...), frame(arcsWeight32, good[:1]...)}, 1},
		{"unit records past 2^32 vertices", wide, [][]byte{nil, frame(arcsUnit32, good[:1]...)}, 1},
		{"64-bit records in a small world", 8, [][]byte{weighted, frame(arcs64, good[:1]...)}, 1},
		{"unowned source", 8, [][]byte{weighted, frame(arcsWeight32, oracleArc{4, 0, 1})}, 1},
		{"unowned source, 64-bit", wide, [][]byte{frame(arcs64, good...), frame(arcs64, oracleArc{4, 0, 1})}, 1},
		{"negative source", wide, [][]byte{frame(arcs64, oracleArc{-1, 0, 1})}, 0},
		{"target out of range", 8, [][]byte{frame(arcsUnit32, append(good[:10:10], oracleArc{0, 8, 1})...)}, 0},
		{"target out of range, last of many", 8, [][]byte{weighted, frame(arcsWeight32, append(good[:10:10], oracleArc{0, 8, 1})...)}, 1},
		{"target at n = 2^32 − 1", 1<<32 - 1, [][]byte{nil, frame(arcsUnit32, oracleArc{0, 1<<32 - 2, 1}, oracleArc{1, 1<<32 - 1, 1})}, 1},
		{"negative target", wide, [][]byte{frame(arcs64, oracleArc{0, -3, 1})}, 0},
		{"target past 2^32 vertices", wide, [][]byte{nil, frame(arcs64, good[0], oracleArc{0, wide, 1})}, 1},
	}
	for _, tc := range cases {
		_, err := assembleAtRank0(tc.n, 4, tc.recv, nil)
		if !errors.Is(err, ErrMalformedArcs) {
			t.Errorf("%s: got %v, want ErrMalformedArcs", tc.name, err)
		} else if want := fmt.Sprintf("from rank %d", tc.sender); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %q does not say %q", tc.name, err, want)
		}
	}
}

// TestFrameLayouts holds ArcWriter to the format: two writers sharing the
// frames of a 2-rank world produce, byte for byte, the frames encoded by
// hand — unit-weight frames without weights, a frame with one weight that is
// not 1.0 with all of them (the other writer's unit records widened), 64-bit
// records past 2³² vertices, writer segments in writer order — and the
// assembly of each frame is the oracle's.
func TestFrameLayouts(t *testing.T) {
	unit := []oracleArc{{0, 3, 1}, {1, 2, 1}, {5, 0, 1}, {1, 2, 1}}
	mixed := []oracleArc{{6, 1, 1}, {2, 4, 3}, {4, 4, 1}}
	// Rank 0 owns [0, 4), rank 1 the rest: Put takes the owner, and
	// assembleAtRank0 the owned range, so that a vertex space past 2³² fits a
	// test.
	owner := func(v int64) int { return min(int(v/4), 1) }
	for _, n := range []int64{8, 1<<32 - 1, 1 << 32, 1<<33 + 5} {
		var frames [2][]byte
		err := mpi.Run(2, func(c *mpi.Comm) error {
			if c.Rank() != 0 {
				return nil
			}
			s := NewShuffle(c, n, 2, false)
			ws := []*ArcWriter{s.Writer(0), s.Writer(1)}
			for i, a := range append(unit, mixed...) {
				ws[i%2].Put(owner(a.from), a.from, a.to, a.w)
			}
			for q, segs := range s.frames() {
				frames[q] = slices.Concat(segs...)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Rank 0's frame holds the even-numbered arcs owned by rank 0, then
		// the odd-numbered ones; rank 1's likewise.
		var want [2][]oracleArc
		for w := 0; w < 2; w++ {
			for i, a := range append(unit, mixed...) {
				if i%2 == w {
					q := owner(a.from)
					want[q] = append(want[q], a)
				}
			}
		}
		layouts := [2]byte{arcsWeight32, arcsUnit32} // rank 0 owns the 3
		if wideIDs(n) {
			layouts = [2]byte{arcs64, arcs64}
		}
		for q := range frames {
			if f := frame(layouts[q], want[q]...); !slices.Equal(frames[q], f) {
				t.Fatalf("n=%d: frame for rank %d is %v, want %v", n, q, frames[q], f)
			}
		}
		dg, err := assembleAtRank0(n, 4, [][]byte{frames[0], nil}, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := oracleAssemble(0, 4, [][]oracleArc{want[0]}).diff(dg); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestShuffleBytesPerArc pins what construction puts on the wire: an
// unweighted input crosses the shuffle at 8 bytes per arc, plus one layout
// byte per non-empty frame; float weights cost 16 bytes per arc. The width is
// the frame's: when only the edges inside the last rank's range weigh 2.5,
// the frames to the other ranks, all of whose arcs weigh 1.0, still travel
// at 8 bytes per arc, and the last rank's at 16 — its unit records widened
// when the first 2.5 reaches them. The byte counter is the one mpi.Comm keeps
// for collectives; the allreduces Build makes — M2 and the fractional count,
// then, for weights that are not integers, the scale rule's two and M2 once
// scaled — are measured apart and subtracted.
func TestShuffleBytesPerArc(t *testing.T) {
	n, edges := gen.ErdosRenyi(500, 3000, 4)
	const p = 3
	owner := func(v int64) int { return gio.SegmentOwner(n, v, p) }
	// wireBytes is what the frames of the chunks must weigh at width(q) bytes
	// per arc for owner q: every arc whose owner is not its sender's rank,
	// plus one layout byte per non-empty frame.
	wireBytes := func(width func(q int) int64) int64 {
		var total int64
		for r := 0; r < p; r++ {
			arcs := make([]int64, p)
			for _, a := range expandChunk(chunkEdges(edges, r, p)) {
				arcs[owner(a.from)]++
			}
			for q, k := range arcs {
				if q != r && k > 0 {
					total += 1 + width(q)*k
				}
			}
		}
		return total
	}
	measure := func(weights func([]graph.RawEdge) []graph.RawEdge) int64 {
		var mu sync.Mutex
		var total int64
		lanes := []int{2}
		if w := weights(edges); slices.ContainsFunc(w, func(e graph.RawEdge) bool { return e.W != math.Trunc(e.W) }) {
			lanes = append(lanes, 2, 1, 1)
		}
		err := mpi.Run(p, func(c *mpi.Comm) error {
			before := c.Stats().Snapshot()
			for _, k := range lanes {
				if _, err := c.AllreduceFloat64s(make([]float64, k), mpi.OpSum); err != nil {
					return err
				}
			}
			mid := c.Stats().Snapshot()
			if _, err := Build(c, n, weights(chunkEdges(edges, c.Rank(), p)), nil); err != nil {
				return err
			}
			after := c.Stats().Snapshot()
			mu.Lock()
			total += after.Sub(mid).CollBytes - mid.Sub(before).CollBytes
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	same := func(e []graph.RawEdge) []graph.RawEdge { return e }
	if got, want := measure(same), wireBytes(func(int) int64 { return 8 }); got != want {
		t.Errorf("unweighted Build sent %d bytes, want %d (8 per arc)", got, want)
	}
	if got, want := measure(floatWeights), wireBytes(func(int) int64 { return 16 }); got != want {
		t.Errorf("float-weighted Build sent %d bytes, want %d (16 per arc)", got, want)
	}
	lastRange := func(chunk []graph.RawEdge) []graph.RawEdge {
		out := slices.Clone(chunk)
		for i, e := range out {
			if owner(e.U) == p-1 && owner(e.V) == p-1 {
				out[i].W = 2.5
			}
		}
		return out
	}
	byOwner := func(q int) int64 {
		if q == p-1 {
			return 16
		}
		return 8
	}
	if got, want := measure(lastRange), wireBytes(byOwner); got != want {
		t.Errorf("Build with weights in the last rank's range sent %d bytes, want %d (16 per arc to rank %d, 8 to the others)", got, want, p-1)
	}
}

// TestValidateCatchesBrokenInvariants corrupts a valid graph one invariant
// at a time.
func TestValidateCatchesBrokenInvariants(t *testing.T) {
	edges := []graph.RawEdge{{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 2}, {U: 0, V: 3, W: 3}, {U: 1, V: 1, W: 5}, {U: 1, V: 2, W: 1}}
	breaks := map[string]func(dg *DistGraph){
		"row out of order":  func(dg *DistGraph) { dg.Slot[0], dg.Slot[1] = dg.Slot[1], dg.Slot[0] },
		"duplicate target":  func(dg *DistGraph) { dg.Slot[1] = dg.Slot[0] },
		"degree cache":      func(dg *DistGraph) { dg.K[0] += 1 },
		"self-loop cache":   func(dg *DistGraph) { dg.SelfLoop[1] = 4 },
		"phantom self loop": func(dg *DistGraph) { dg.SelfLoop[0] = 1 },
		// Rank 0's rows: 0 → {1, 2, 3}, 1 → {0, 1, 2}; slots 1 2 3 | 0 1 2.
		"owned target's slot": func(dg *DistGraph) { dg.Slot[0] = 0 },
		"ghost slots swapped": func(dg *DistGraph) { dg.Slot[1], dg.Slot[2] = dg.Slot[2], dg.Slot[1] },
		"ghost slot on owned": func(dg *DistGraph) { dg.Slot[3] = 2 },
		"slot past the table": func(dg *DistGraph) { dg.Slot[2] = 4 },
		"short Slot":          func(dg *DistGraph) { dg.Slot = dg.Slot[:len(dg.Slot)-1] },
		"short W":             func(dg *DistGraph) { dg.W = dg.W[:len(dg.W)-1] },
		"negative slot":       func(dg *DistGraph) { dg.Slot[0] = -1 },
		"negative weight":     func(dg *DistGraph) { dg.W[0] = -1 },
		"missing ghost slot":  func(dg *DistGraph) { dg.Ghosts = dg.Ghosts[:1] },
		"index overruns":      func(dg *DistGraph) { dg.Index[dg.LocalN]++ },
		"short K":             func(dg *DistGraph) { dg.K = dg.K[:1] },
		// A unit graph: the same arcs, every weight 1, so W is nil.
		"unit: too few 1s":    func(dg *DistGraph) { dg.ones = dg.ones[:2] },
		"unit: a 1 that is 2": func(dg *DistGraph) { dg.ones[0] = 2 },
	}
	for name, breakIt := range breaks {
		edges := edges
		if strings.HasPrefix(name, "unit: ") {
			edges = slices.Clone(edges)
			for i := range edges {
				edges[i].W = 1
			}
		}
		err := mpi.Run(2, func(c *mpi.Comm) error {
			dg, err := Build(c, 4, chunkEdges(edges, c.Rank(), 2), nil)
			if err != nil {
				return err
			}
			if err := dg.Validate(); err != nil {
				return err
			}
			if c.Rank() != 0 { // rank 0 owns {0,1}, ghosts {2,3}
				return nil
			}
			breakIt(dg)
			if dg.Validate() == nil {
				return fmt.Errorf("Validate accepted the corrupted graph")
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestSlotSpaceIsChecked: a rank whose vertices and ghosts would not fit an
// int32 slot fails typed instead of wrapping around.
func TestSlotSpaceIsChecked(t *testing.T) {
	if err := checkSlotSpace(math.MaxInt32-5, 5); err != nil {
		t.Fatalf("exactly full slot space rejected: %v", err)
	}
	if err := checkSlotSpace(math.MaxInt32-5, 6); !errors.Is(err, ErrSlotSpace) {
		t.Fatalf("got %v, want ErrSlotSpace", err)
	}
}

// FuzzBuildFromArcs has two modes. By default it decodes the input into a
// rank count, a vertex count and a list of (rank, from, to, weight) arcs, and
// holds BuildFromArcs to the oracle. Weights are integers up to 2.55·10⁶ —
// or, with bit 0x08 of the first byte set, quarter-integers from 0.0025 on,
// which BuildFromArcs scales to integers by the rule, as the oracle does; with
// bit 0x20 set, all 1.0, so the frames
// travel in the unit layout, or, with bit 0x10 set, 1.0 but for the arcs
// whose weight byte is 0xc0 or more, so that unit records are widened
// mid-frame. The same arcs
// are also put through a two-writer shuffle in segments the input picks
// (segmentedMatchesWhole). With the top bit of the first byte set the vertex space is 160–2560
// wide instead of 1–16 (IDs borrow three bits each from the rank byte), so
// ghost candidates run into the thousands and rows past radixMinRow; the
// fourth seed is such an input. With bit 0x40 of the first byte set the rest
// is one raw frame from rank 1 to rank 0 of a 2-rank world (over 2³³ + 1–127
// vertices, rank 0 owning [0, 8), when the second byte's top bit is set): the
// assembly must either refuse it with ErrMalformedArcs or ErrWeight, or agree
// with the oracle fed the arcs the test's own decoder reads from it, their
// weights made integers by the scale rule (graph.Weights.Scale over those
// arcs). In both modes an accepted input is assembled again into recycled storage full of sentinel
// garbage, with room to spare and too small (recycledMatchesFresh), and must
// come out as the fresh assembly did.
func FuzzBuildFromArcs(f *testing.F) {
	f.Add([]byte{2, 4, 0, 0, 1, 5, 1, 1, 0, 5, 0, 0, 1, 9, 1, 3, 3, 2})
	f.Add([]byte{3, 1, 2, 0, 0, 255})
	f.Add([]byte{0, 15})
	// 4 ranks, 2560 vertices, 1800 arcs: a third of them leave vertex 8.
	wide := []byte{0x83, 15}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1800; i++ {
		from := byte(rng.Intn(256))
		if i%3 == 0 {
			from = 1
		}
		wide = append(wide, byte(rng.Intn(256))&^0x1c, from, byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	f.Add(wide)
	f.Add(append([]byte{0x22, 9}, wide[2:400]...))
	f.Add(append([]byte{0x10, 0x6b}, wide[2:1200]...)) // one rank, mostly unit weights: long frames, widened mid-frame
	f.Add(append([]byte{0x40, 12}, frame(arcsUnit32, oracleArc{0, 3, 1}, oracleArc{2, 9, 1}, oracleArc{0, 3, 1})...))
	f.Add(append([]byte{0x40, 5}, frame(arcsWeight32, oracleArc{1, 0, 0.1}, oracleArc{1, 0, 0.2}, oracleArc{2, 2, 5})...))
	f.Add(append([]byte{0x40, 5}, frame(arcsWeight32, oracleArc{1, 0, 3}, oracleArc{1, 0, 0}, oracleArc{2, 2, 5})...))
	f.Add(append([]byte{0x40, 0x83}, frame(arcs64, oracleArc{7, 1 << 33, 2}, oracleArc{0, 5, 0.5})...))
	f.Add(append([]byte{0x40, 0x83}, frame(arcs64, oracleArc{7, 1 << 33, 2}, oracleArc{0, 5, 1 << 40})...))
	f.Add(append([]byte{0x08 | 2, 4}, wide[2:40]...)) // weights that are not all integers
	f.Add(append([]byte{0x40, 0x83}, frame(arcsWeight32, oracleArc{7, 6, 2})...))
	// Unit weights, 3 ranks over 16 vertices: the middle rank's rows name
	// ghosts at both ends of the ID space, every arc twice, from two senders.
	f.Add([]byte{0x22, 15, 0, 7, 0, 0, 1, 7, 15, 0, 2, 7, 0, 0, 0, 7, 15, 0, 1, 8, 8, 0, 2, 8, 8, 0, 0, 0, 7, 0, 1, 15, 7, 0, 2, 6, 11, 0, 0, 6, 11, 0})
	f.Add(append([]byte{0x40, 15}, frame(arcsUnit32, oracleArc{0, 15, 1}, oracleArc{7, 8, 1}, oracleArc{0, 15, 1}, oracleArc{3, 3, 1}, oracleArc{3, 3, 1}, oracleArc{7, 8, 1})...))
	f.Add([]byte{0x40, 3, arcsUnit32})
	f.Add([]byte{0x40, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if data[0]&0x40 != 0 {
			fuzzRawFrame(t, data[1], data[2:])
			return
		}
		p := int(data[0])%4 + 1
		n := int64(data[1])%16 + 1
		wide := data[0]&0x80 != 0
		if wide {
			n *= 160
		}
		perRank := make([][]Arc, p)
		picks := make([][]byte, p)
		for rest := data[2:]; len(rest) >= 4 && len(rest) <= 4*2048; rest = rest[4:] {
			r := int(rest[0]) % p
			w := float64(rest[3]) * math.Pow(10, float64(rest[0]%5))
			if data[0]&0x08 != 0 {
				w = float64(rest[3]) / 4 * math.Pow(10, float64(rest[0]%5)-2)
			}
			if data[0]&0x20 != 0 || data[0]&0x10 != 0 && rest[3] < 0xc0 {
				w = 1
			}
			picks[r] = append(picks[r], rest[0]^rest[3]^data[1]>>4*0x35)
			from, to := int64(rest[1]), int64(rest[2])
			if wide {
				from, to = from<<3|int64(rest[0]>>2&7), to<<3|int64(rest[0]>>5)
			}
			perRank[r] = append(perRank[r], Arc{From: from % n, To: to % n, W: w})
		}
		err := arcsAgainstOracle(n, perRank)
		if err != nil {
			t.Fatal(err)
		}
		err = mpi.Run(p, func(c *mpi.Comm) error { return recycledMatchesFresh(c, n, perRank[c.Rank()]) })
		if err != nil {
			t.Fatal(err)
		}
		err = mpi.Run(p, func(c *mpi.Comm) error { return segmentedMatchesWhole(c, n, perRank[c.Rank()], picks[c.Rank()]) })
		if err != nil {
			t.Fatal(err)
		}
	})
}

// segmentedMatchesWhole puts arcs through two writers of one shuffle, arc i by
// writer pick[i]&1, and ends the writer's segment for the arc's owner after
// it when pick[i]&6 is 0 — twice, leaving an empty segment, when pick[i]&0x18
// is 0 too (collective). Every frame must come out as the bytes of one
// segment encoded by hand — the layout byte its arcs select, then writer 0's
// arcs for that owner and writer 1's, in put order — and the graph Exchange
// assembles must be the one those one-segment frames assemble to, field for
// field.
func segmentedMatchesWhole(c *mpi.Comm, n int64, arcs []Arc, pick []byte) error {
	s := NewShuffle(c, n, 2, false)
	var byWriter [2][][]oracleArc // [writer][owner]
	for i := range byWriter {
		byWriter[i] = make([][]oracleArc, c.Size())
	}
	for i, a := range arcs {
		w, q := s.Writer(int(pick[i]&1)), s.Owner(a.From)
		w.Put(q, a.From, a.To, a.W)
		byWriter[pick[i]&1][q] = append(byWriter[pick[i]&1][q], oracleArc{a.From, a.To, a.W})
		if pick[i]&6 == 0 {
			w.nextSegment(&w.streams[q])
			if pick[i]&0x18 == 0 {
				w.nextSegment(&w.streams[q])
			}
		}
	}
	whole := make([][]byte, c.Size())
	for q := range whole {
		want := append(slices.Clone(byWriter[0][q]), byWriter[1][q]...)
		if len(want) == 0 {
			continue
		}
		layout := byte(arcsUnit32)
		switch {
		case wideIDs(n):
			layout = arcs64
		case slices.ContainsFunc(want, func(a oracleArc) bool { return a.w != 1 }):
			layout = arcsWeight32
		}
		whole[q] = frame(layout, want...)
	}
	for q, segs := range s.frames() {
		if got := slices.Concat(segs...); !bytes.Equal(got, whole[q]) {
			return fmt.Errorf("rank %d: the frame for rank %d is %d bytes in %d segments, want the %d of one", c.Rank(), q, len(got), len(segs), len(whole[q]))
		}
	}
	got, err := s.Exchange(nil)
	if err != nil {
		return err
	}
	recv, err := c.Alltoall(whole)
	if err != nil {
		return err
	}
	frames := make([][][]byte, len(recv))
	for q := range recv {
		frames[q] = recv[q : q+1]
	}
	one := NewShuffle(c, n, 1, false)
	lo, hi := gio.SegmentRange(n, c.Rank(), c.Size())
	want, err := one.assemble(lo, hi, frames, &DistGraph{})
	if err != nil {
		return err
	}
	return sameGraph(got, want)
}

// fuzzRawFrame is FuzzBuildFromArcs' frame mode: f arrives at rank 0 from
// rank 1.
func fuzzRawFrame(t *testing.T, shape byte, f []byte) {
	n := int64(shape%16) + 1
	_, hi := gio.SegmentRange(n, 0, 2)
	if shape&0x80 != 0 {
		n, hi = 1<<33+int64(shape&0x7f), 8
	}
	if len(f) > 1+24*512 {
		return
	}
	dg, err := assembleAtRank0(n, hi, [][]byte{nil, f}, nil)
	if err != nil {
		if !errors.Is(err, ErrMalformedArcs) && !errors.Is(err, ErrWeight) {
			t.Fatalf("refused with %v, want ErrMalformedArcs or ErrWeight", err)
		}
		return
	}
	for _, short := range []bool{false, true} {
		got, err := assembleAtRank0(n, hi, [][]byte{nil, f}, sentinelSpare(dg, short))
		if err == nil {
			err = sameGraph(got, dg)
		}
		if err != nil {
			t.Fatalf("into a recycled graph (short=%v): %v", short, err)
		}
	}
	// Accepted: read the records the way the format says, apply the scale
	// rule to them and ask the oracle.
	var arcs []oracleArc
	var weights graph.Weights
	for b := f[min(1, len(f)):]; len(b) > 0; {
		var a oracleArc
		switch f[0] {
		case arcsUnit32:
			a, b = oracleArc{int64(binary.LittleEndian.Uint32(b)), int64(binary.LittleEndian.Uint32(b[4:])), 1}, b[8:]
		case arcsWeight32:
			a, b = oracleArc{int64(binary.LittleEndian.Uint32(b)), int64(binary.LittleEndian.Uint32(b[4:])), math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))}, b[16:]
		default:
			a, b = oracleArc{int64(binary.LittleEndian.Uint64(b)), int64(binary.LittleEndian.Uint64(b[8:])), math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))}, b[24:]
		}
		if a.from < 0 || a.from >= hi || a.to < 0 || a.to >= n {
			t.Fatalf("accepted arc (%d,%d) outside rank 0's sources or the vertex space of %d", a.from, a.to, n)
		}
		weights.Add(a.w, 1)
		arcs = append(arcs, a)
	}
	s, err := weights.Scale()
	if err != nil || dg.M2 >= 1<<53 {
		t.Fatalf("accepted arcs the scale rule refuses (%v), or 2m = %v, not below 2^53", err, dg.M2)
	}
	for i := range arcs {
		arcs[i].w = graph.Quantize(arcs[i].w, s)
	}
	if err := oracleAssemble(0, hi, [][]oracleArc{nil, arcs}).diff(dg); err != nil {
		t.Fatal(err)
	}
}

// rmat14 is the benchmark input: R-MAT scale 14, edge factor 8.
func rmat14(tb testing.TB) (int64, []graph.RawEdge) {
	n, edges, err := gen.RMAT(14, 8, .57, .19, .19, .05, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return n, edges
}

func BenchmarkBuild(b *testing.B) {
	n, edges := rmat14(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(2, func(c *mpi.Comm) error {
			_, err := Build(c, n, chunkEdges(edges, c.Rank(), 2), nil)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildFromArcs(b *testing.B) {
	n, edges := rmat14(b)
	perRank := make([][]Arc, 2)
	for r := range perRank {
		for _, a := range expandChunk(chunkEdges(edges, r, 2)) {
			perRank[r] = append(perRank[r], Arc{From: a.from, To: a.to, W: a.w})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(2, func(c *mpi.Comm) error {
			_, err := BuildFromArcs(c, n, perRank[c.Rank()])
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestBuildAllocationsIndependentOfEdgeCount is the allocation ceiling: one
// Build allocates a fixed number of objects per rank pair — buffers, CSR
// arrays, ghost tables, transport messages — however many arcs flow through
// it. Both inputs span the same vertex set; the second has eight times the
// edges.
func TestBuildAllocationsIndependentOfEdgeCount(t *testing.T) {
	const p = 3
	allocs := func(m int64) float64 {
		n, edges := gen.ErdosRenyi(2000, m, 5)
		return testing.AllocsPerRun(5, func() {
			err := mpi.Run(p, func(c *mpi.Comm) error {
				_, err := Build(c, n, chunkEdges(edges, c.Rank(), p), nil)
				return err
			})
			if err != nil {
				t.Error(err)
			}
		})
	}
	small, large := allocs(20000), allocs(160000)
	t.Logf("allocations per %d-rank Build: %.0f at m=20000, %.0f at m=160000", p, small, large)
	if large > small+8 {
		t.Fatalf("allocations grow with the edge count: %.0f at m=20000, %.0f at m=160000", small, large)
	}
	if small > 100*p*p {
		t.Fatalf("%.0f allocations per Build is not O(p) for p=%d", small, p)
	}
}
