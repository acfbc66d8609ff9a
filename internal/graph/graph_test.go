package graph

import (
	"math"
	"testing"
	"testing/quick"
)

// triangle returns the weighted triangle 0-1-2 with an extra self loop at 2.
func triangle() *CSR {
	return FromRawEdges(3, []RawEdge{{0, 1, 1}, {1, 2, 2}, {0, 2, 3}, {2, 2, 5}})
}

func TestBuilderBasicCSR(t *testing.T) {
	g := triangle()
	if g.N != 3 {
		t.Fatalf("N = %d", g.N)
	}
	if got := g.NumArcs(); got != 7 { // 3 undirected edges ×2 + 1 self loop
		t.Fatalf("arcs = %d, want 7", got)
	}
	if err := g.Validate(true); err != nil {
		t.Fatal(err)
	}
	if d := g.Degree(2); d != 3 {
		t.Fatalf("degree(2) = %d, want 3", d)
	}
	if k := g.WeightedDegree(2); k != 2+3+5 {
		t.Fatalf("k(2) = %g, want 10", k)
	}
	if sl := g.SelfLoopWeight(2); sl != 5 {
		t.Fatalf("selfloop(2) = %g, want 5", sl)
	}
	if sl := g.SelfLoopWeight(0); sl != 0 {
		t.Fatalf("selfloop(0) = %g, want 0", sl)
	}
	// m2 = sum of k(v) = (1+3) + (1+2) + (2+3+5) = 17
	if m2 := g.TotalWeight(); m2 != 17 {
		t.Fatalf("m2 = %g, want 17", m2)
	}
}

func TestBuilderMergesParallelEdges(t *testing.T) {
	g := FromRawEdges(2, []RawEdge{{0, 1, 1}, {1, 0, 2.5}, {0, 1, 0.5}})
	if g.NumArcs() != 2 {
		t.Fatalf("arcs = %d, want 2 (merged)", g.NumArcs())
	}
	// 6 arcs, Σ⌈w⌉ = 10: the scale rule's s = 48 (2⁴⁸·10 ≤ 2⁵²).
	if w := g.Neighbors(0)[0].W; w != 4<<48 {
		t.Fatalf("merged weight = %g, want 4·2^48", w)
	}
	if err := g.Validate(true); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacencySorted(t *testing.T) {
	g := FromRawEdges(5, []RawEdge{{0, 4, 1}, {0, 2, 1}, {0, 3, 1}, {0, 1, 1}})
	nbrs := g.Neighbors(0)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1].To >= nbrs[i].To {
			t.Fatalf("adjacency not sorted: %v", nbrs)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := FromRawEdges(0, nil)
	if err := g.Validate(true); err != nil {
		t.Fatal(err)
	}
	if g.TotalWeight() != 0 || g.NumArcs() != 0 {
		t.Fatal("empty graph not empty")
	}
	s := ComputeStats(g)
	if s.Vertices != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := FromRawEdges(10, []RawEdge{{0, 1, 1}})
	if err := g.Validate(true); err != nil {
		t.Fatal(err)
	}
	if d := g.Degree(5); d != 0 {
		t.Fatalf("degree(5) = %d", d)
	}
	s := ComputeStats(g)
	if s.Isolated != 8 {
		t.Fatalf("isolated = %d, want 8", s.Isolated)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := triangle()
	bad := g.Clone()
	bad.Edges[0].To = 99
	if err := bad.Validate(false); err == nil {
		t.Fatal("expected out-of-range target error")
	}
	bad = g.Clone()
	bad.Index[1], bad.Index[2] = bad.Index[2], bad.Index[1]
	if err := bad.Validate(false); err == nil {
		t.Fatal("expected monotonicity error")
	}
	bad = g.Clone()
	bad.Edges[0].W = -3
	if err := bad.Validate(false); err == nil {
		t.Fatal("expected negative-weight error")
	}
	// Break symmetry: find the arc 0→1 and change its weight.
	bad = g.Clone()
	for i := range bad.Edges {
		if bad.Edges[i].To == 1 && i < int(bad.Index[1]) {
			bad.Edges[i].W += 1
			break
		}
	}
	if err := bad.Validate(true); err == nil {
		t.Fatal("expected symmetry error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := triangle()
	c := g.Clone()
	c.Edges[0].W = 1000
	c.Index[0] = 42
	if g.Edges[0].W == 1000 || g.Index[0] == 42 {
		t.Fatal("clone aliases original")
	}
}

func TestUndirectedEdgesRoundTrip(t *testing.T) {
	g := triangle()
	rebuilt := FromRawEdges(g.N, g.UndirectedEdges())
	if rebuilt.NumArcs() != g.NumArcs() {
		t.Fatalf("arcs %d != %d", rebuilt.NumArcs(), g.NumArcs())
	}
	if math.Abs(rebuilt.TotalWeight()-g.TotalWeight()) > 1e-12 {
		t.Fatalf("m2 %g != %g", rebuilt.TotalWeight(), g.TotalWeight())
	}
	for v := int64(0); v < g.N; v++ {
		if rebuilt.Degree(v) != g.Degree(v) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
}

func TestStats(t *testing.T) {
	g := triangle()
	s := ComputeStats(g)
	if s.Vertices != 3 || s.Arcs != 7 || s.SelfLoops != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if s.UndirEdges != 4 { // 3 proper edges + 1 self loop
		t.Fatalf("undirected edges = %d", s.UndirEdges)
	}
	if s.TotalWeight != 17 {
		t.Fatalf("m2 = %g", s.TotalWeight)
	}
	if s.MaxDegree != 3 || s.MinDegree != 2 {
		t.Fatalf("degrees: %+v", s)
	}
	if s.MaxEdgeWeight != 5 {
		t.Fatalf("max weight = %g", s.MaxEdgeWeight)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestDegreeHistogram(t *testing.T) {
	// degrees: v0: 4, v1..v4: 1, v5: 0
	g := FromRawEdges(6, []RawEdge{{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {0, 4, 1}})
	h := DegreeHistogram(g)
	if h[0] != 1 { // one isolated
		t.Fatalf("bucket0 = %d", h[0])
	}
	if h[1] != 4 { // four degree-1
		t.Fatalf("bucket1 = %d", h[1])
	}
	// degree 4 lands in bucket [4,8) = index 3
	if h[3] != 1 {
		t.Fatalf("histogram: %v", h)
	}
}

// Property: for any random edge list, the built CSR validates, is symmetric,
// and preserves total weight exactly (m2 = 2·Σw for non-loops + Σw for loops,
// each w scaled by the rule).
func TestQuickBuilderInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int64(nRaw%20) + 1
		rng := seed
		next := func() int64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := rng >> 33
			if v < 0 {
				v = -v
			}
			return v
		}
		var raw []RawEdge
		for i := 0; i < int(nRaw); i++ {
			u, v := next()%n, next()%n
			raw = append(raw, RawEdge{U: u, V: v, W: float64(next()%100) / 10})
		}
		s, err := ScaleOf(Edges(raw))
		if err != nil {
			return false
		}
		var wantM2 float64
		for _, e := range raw {
			if w := Quantize(e.W, s); e.U == e.V {
				wantM2 += w
			} else {
				wantM2 += 2 * w
			}
		}
		g := FromRawEdges(n, raw)
		if err := g.Validate(true); err != nil {
			return false
		}
		return g.TotalWeight() == wantM2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: WeightedDegree sums to TotalWeight.
func TestQuickDegreeSumEqualsM2(t *testing.T) {
	f := func(seed int64) bool {
		n := int64(seed%13+13) % 13
		if n < 2 {
			n = 2
		}
		var raw []RawEdge
		s := seed
		for i := int64(0); i < 3*n; i++ {
			s = s*2862933555777941757 + 3037000493
			u := ((s >> 32) & 0x7fffffff) % n
			v := ((s >> 12) & 0x7fffffff) % n
			raw = append(raw, RawEdge{U: u, V: v, W: 1})
		}
		g := FromRawEdges(n, raw)
		var sum float64
		for v := int64(0); v < n; v++ {
			sum += g.WeightedDegree(v)
		}
		return sum == g.TotalWeight()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
