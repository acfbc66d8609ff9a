package shared

import (
	"math"
	"testing"
	"testing/quick"

	"distlouvain/internal/core"
	"distlouvain/internal/gen"
	"distlouvain/internal/graph"
	"distlouvain/internal/par"
	"distlouvain/internal/seq"
)

func run(t *testing.T, g *graph.CSR, opt Options) *core.Result {
	t.Helper()
	res, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func twoCliques() *graph.CSR {
	var edges []graph.RawEdge
	clique := func(vs []int64) {
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				edges = append(edges, graph.RawEdge{U: vs[i], V: vs[j], W: 1})
			}
		}
	}
	clique([]int64{0, 1, 2, 3})
	clique([]int64{4, 5, 6, 7})
	edges = append(edges, graph.RawEdge{U: 3, V: 4, W: 1})
	return graph.FromRawEdges(8, edges)
}

func TestRunTwoCliques(t *testing.T) {
	for _, threads := range []int{1, 2, 4} {
		res := run(t, twoCliques(), Options{Threads: threads})
		if res.Communities != 2 {
			t.Fatalf("threads=%d: %d communities (comm=%v)", threads, res.Communities, res.GlobalComm)
		}
		want := 24.0/26.0 - 0.5
		if math.Abs(res.Modularity-want) > 1e-12 {
			t.Fatalf("threads=%d: Q=%g want %g", threads, res.Modularity, want)
		}
	}
}

func TestRunMatchesSerialQuality(t *testing.T) {
	n, edges, _ := gen.PlantedPartition(8, 25, 0.4, 0.005, 21)
	g := gen.Build(n, edges)
	serial := seq.Run(g, seq.Options{})
	parallel := run(t, g, Options{Threads: 4})
	// Different local optima are legal; quality must be comparable
	// ("modularity difference under 1%" per the paper's Table III note).
	if parallel.Modularity < serial.Modularity*0.97 {
		t.Fatalf("parallel Q=%.4f far below serial Q=%.4f", parallel.Modularity, serial.Modularity)
	}
	// And the assignment must certify to the reported result.
	if _, err := seq.Check(g.N, g.Stream(), parallel.GlobalComm, parallel.Modularity, parallel.Communities); err != nil {
		t.Fatal(err)
	}
}

func TestRunEmptyGraph(t *testing.T) {
	res := run(t, graph.FromRawEdges(0, nil), Options{})
	if len(res.GlobalComm) != 0 || res.Modularity != 0 {
		t.Fatalf("%+v", res)
	}
}

func TestRunNoEdges(t *testing.T) {
	res := run(t, graph.FromRawEdges(5, nil), Options{Threads: 2})
	if res.Communities != 5 {
		t.Fatalf("isolated vertices merged: %v", res.GlobalComm)
	}
}

func TestRunMaxCaps(t *testing.T) {
	_, edges := gen.ErdosRenyi(150, 600, 4)
	g := gen.Build(150, edges)
	res := run(t, g, Options{MaxPhases: 1, MaxIterations: 2, Threads: 2})
	if len(res.Phases) != 1 || res.Phases[0].Iterations > 2 {
		t.Fatalf("caps ignored: %+v", res.Phases)
	}
}

// TestETAlphaOneReducesIterations: whatever the name says, what ET reduces on
// this mesh is work — vertices evaluated — at a small modularity loss
// (Table I), as on LFR, not iterations: under hashed ties the baseline
// converges in tens of them. So work is what is asserted.
func TestETAlphaOneReducesIterations(t *testing.T) {
	n, edges := gen.BandedMesh(3000, 6)
	g := gen.Build(n, edges)
	touched := func(r *core.Result) (sum int64) {
		for _, ph := range r.Phases {
			for _, c := range ph.TouchedTrajectory {
				sum += c
			}
		}
		return sum
	}
	base := run(t, g, Options{Threads: 2, Alpha: 0, Seed: 5})
	for _, alpha := range []float64{0.75, 1.0} {
		et := run(t, g, Options{Threads: 2, Alpha: alpha, Seed: 5})
		if bt, at := touched(base), touched(et); at*10 > bt*8 {
			t.Fatalf("ET(%g) evaluated %d vertices, baseline %d: want at least 20%% fewer", alpha, at, bt)
		}
		if et.Modularity < base.Modularity-0.05 {
			t.Fatalf("ET(%g) Q=%.4f, baseline Q=%.4f", alpha, et.Modularity, base.Modularity)
		}
	}
}

func TestETMarksVerticesInactive(t *testing.T) {
	n, edges := gen.BandedMesh(2000, 4)
	g := gen.Build(n, edges)
	res := run(t, g, Options{Threads: 2, Alpha: 0.75, Seed: 9, MaxPhases: 1})
	if res.Phases[0].InactiveFrac == 0 {
		t.Fatal("no vertices went inactive with alpha=0.75")
	}
	base := run(t, g, Options{Threads: 2, Alpha: 0, MaxPhases: 1})
	if base.Phases[0].InactiveFrac != 0 {
		t.Fatal("baseline marked vertices inactive")
	}
}

func TestVertexFollowing(t *testing.T) {
	// Star with pendant vertices: all leaves should follow the hub.
	var edges []graph.RawEdge
	for v := int64(1); v < 6; v++ {
		edges = append(edges, graph.RawEdge{U: 0, V: v, W: 1})
	}
	g := graph.FromRawEdges(6, edges)
	init := FollowVertices(g)
	for v := 1; v < 6; v++ {
		if init[v] != 0 {
			t.Fatalf("leaf %d followed to %d", v, init[v])
		}
	}
	if init[0] != 0 {
		t.Fatalf("hub moved to %d", init[0])
	}
	followed := 0
	for v, c := range init {
		if c != int64(v) {
			followed++
		}
	}
	if followed != 5 {
		t.Fatalf("followed = %d", followed)
	}
}

func TestVertexFollowingIsolatedPair(t *testing.T) {
	init := FollowVertices(graph.FromRawEdges(4, []graph.RawEdge{{U: 2, V: 3, W: 1}}))
	if init[2] != 2 || init[3] != 2 {
		t.Fatalf("pair should anchor at 2: %v", init)
	}
	if init[0] != 0 || init[1] != 1 {
		t.Fatalf("isolated vertices moved: %v", init)
	}
}

func TestVertexFollowingSelfLoopOnly(t *testing.T) {
	init := FollowVertices(graph.FromRawEdges(2, []graph.RawEdge{{U: 0, V: 0, W: 2}}))
	if init[0] != 0 {
		t.Fatalf("self-loop vertex moved: %v", init)
	}
}

// TestPremergeMatchesCoarsen: the pre-merge is seq.Coarsen of the
// vertex-following assignment — same vertex numbering, same arcs, same weights
// — on a graph with pendants, an isolated pair, self loops and float weights.
func TestPremergeMatchesCoarsen(t *testing.T) {
	n, edges, _ := gen.PlantedPartition(4, 12, 0.5, 0.05, 3)
	// Two pendants on vertex 2, an isolated pair, and two self loops.
	edges = append(edges,
		graph.RawEdge{U: n, V: 2, W: 0.75}, graph.RawEdge{U: n + 1, V: 2, W: 1.25},
		graph.RawEdge{U: n + 2, V: n + 3, W: 0.5},
		graph.RawEdge{U: 5, V: 5, W: 3}, graph.RawEdge{U: n + 4, V: n + 4, W: 2})
	n += 5
	g := gen.Build(n, edges)
	want, renumber := seq.Coarsen(g, FollowVertices(g))
	merged := g.UndirectedEdges()
	m, to := premerge(g, merged)
	got := graph.FromRawEdges(m, merged)
	if got.N != want.N || len(got.Edges) != len(want.Edges) {
		t.Fatalf("premerge: %d vertices, %d arcs; seq.Coarsen: %d, %d", got.N, len(got.Edges), want.N, len(want.Edges))
	}
	for v := range got.Index {
		if got.Index[v] != want.Index[v] {
			t.Fatalf("row %d starts at arc %d, seq.Coarsen at %d", v, got.Index[v], want.Index[v])
		}
	}
	for i, e := range got.Edges {
		if w := want.Edges[i]; e.To != w.To || math.Abs(e.W-w.W) > 1e-12 {
			t.Fatalf("arc %d: premerge %+v, seq.Coarsen %+v", i, e, w)
		}
	}
	for v, c := range FollowVertices(g) {
		if to[v] != renumber[c] {
			t.Fatalf("vertex %d merged into %d, seq.Coarsen says %d", v, to[v], renumber[c])
		}
	}
}

func TestVertexFollowingEndToEnd(t *testing.T) {
	// A planted-partition core with pendants hanging off vertex 0.
	n, edges, _ := gen.PlantedPartition(4, 20, 0.5, 0.01, 33)
	total := n + 10
	for i := int64(0); i < 10; i++ {
		edges = append(edges, graph.RawEdge{U: n + i, V: 0, W: 1})
	}
	g := graph.FromRawEdges(total, edges)
	withVF := run(t, g, Options{Threads: 2, VertexFollowing: true})
	without := run(t, g, Options{Threads: 2})
	if withVF.Modularity < without.Modularity-0.03 {
		t.Fatalf("VF hurt quality: %.4f vs %.4f", withVF.Modularity, without.Modularity)
	}
	// The pendants were merged before the first phase, which ran on the rest.
	if got := withVF.Phases[0].Vertices; got != n {
		t.Fatalf("first phase ran on %d vertices, want %d", got, n)
	}
	// Pendants end in the same community as the hub.
	for i := int64(0); i < 10; i++ {
		if withVF.GlobalComm[n+i] != withVF.GlobalComm[0] {
			t.Fatalf("pendant %d not with hub", n+i)
		}
	}
}

func TestRuntimeRecorded(t *testing.T) {
	res := run(t, twoCliques(), Options{})
	if res.Runtime <= 0 {
		t.Fatal("runtime not recorded")
	}
}

// Property: reported modularity is always exact for the returned assignment
// and labels are dense, across thread counts and heuristics. The weights are
// fractional and vertex following adds pendants, so the CSR → edge list round
// trip into core carries float weights and, through the pre-merge, self loops.
func TestQuickRunConsistency(t *testing.T) {
	f := func(seed uint64, cfg uint8) bool {
		threads := int(cfg%4) + 1
		alpha := float64(cfg%3) * 0.4
		vf := cfg&16 != 0
		n, edges, _ := gen.PlantedPartition(5, 15, 0.5, 0.02, seed)
		for i := range edges {
			edges[i].W = 0.25 + float64(par.Mix64(seed+uint64(i))>>11)/(1<<53)
		}
		for i := int64(0); i < 6; i++ {
			edges = append(edges, graph.RawEdge{U: n + i, V: i * 7 % n, W: 1.5})
		}
		n += 6
		g := gen.Build(n, edges)
		res, err := Run(g, Options{Threads: threads, Alpha: alpha, VertexFollowing: vf, Seed: seed})
		if err != nil {
			return false
		}
		_, err = seq.Check(n, g.Stream(), res.GlobalComm, res.Modularity, res.Communities)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
