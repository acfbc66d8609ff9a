package seq

import (
	"math"
	"testing"
	"testing/quick"

	"distlouvain/internal/gen"
	"distlouvain/internal/graph"
)

// twoCliques builds two 4-cliques joined by one bridge edge — the canonical
// community-detection smoke test.
func twoCliques() *graph.CSR {
	b := graph.NewBuilder(8)
	clique := func(vs []int64) {
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				if err := b.AddEdge(vs[i], vs[j], 1); err != nil {
					panic(err)
				}
			}
		}
	}
	clique([]int64{0, 1, 2, 3})
	clique([]int64{4, 5, 6, 7})
	if err := b.AddEdge(3, 4, 1); err != nil {
		panic(err)
	}
	return b.Build()
}

func TestModularitySingletons(t *testing.T) {
	g := twoCliques()
	comm := make([]int64, g.N)
	for v := range comm {
		comm[v] = int64(v)
	}
	// Singleton partition: Q = -Σ (k_v/m2)², since no internal edges.
	m2 := g.TotalWeight()
	var want float64
	for v := int64(0); v < g.N; v++ {
		k := g.WeightedDegree(v)
		want -= (k / m2) * (k / m2)
	}
	got := Modularity(g, comm)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Q = %g, want %g", got, want)
	}
}

func TestModularityAllInOne(t *testing.T) {
	g := twoCliques()
	comm := make([]int64, g.N) // all zero
	// One community: Q = E/m2 - (A/m2)² = 1 - 1 = 0.
	if q := Modularity(g, comm); math.Abs(q) > 1e-12 {
		t.Fatalf("Q = %g, want 0", q)
	}
}

func TestModularityPlantedOptimum(t *testing.T) {
	g := twoCliques()
	comm := []int64{0, 0, 0, 0, 1, 1, 1, 1}
	// m = 13 edges, m2 = 26. Each clique: E_c = 12 (6 edges ×2),
	// A_c = 13. Q = 2*(12/26 - (13/26)²) = 24/26 - 0.5.
	want := 24.0/26.0 - 0.5
	if q := Modularity(g, comm); math.Abs(q-want) > 1e-12 {
		t.Fatalf("Q = %g, want %g", q, want)
	}
}

func TestModularityEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(3).Build()
	if q := Modularity(g, []int64{0, 1, 2}); q != 0 {
		t.Fatalf("Q = %g for empty graph", q)
	}
}

func TestModularityPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Modularity(twoCliques(), []int64{0})
}

func TestRunRecoversTwoCliques(t *testing.T) {
	g := twoCliques()
	res := Run(g, Options{})
	if res.Communities != 2 {
		t.Fatalf("found %d communities, want 2 (comm=%v)", res.Communities, res.Comm)
	}
	// Vertices 0-3 together, 4-7 together.
	for v := 1; v < 4; v++ {
		if res.Comm[v] != res.Comm[0] {
			t.Fatalf("vertex %d split from first clique: %v", v, res.Comm)
		}
	}
	for v := 5; v < 8; v++ {
		if res.Comm[v] != res.Comm[4] {
			t.Fatalf("vertex %d split from second clique: %v", v, res.Comm)
		}
	}
	want := 24.0/26.0 - 0.5
	if math.Abs(res.Modularity-want) > 1e-12 {
		t.Fatalf("Q = %g, want %g", res.Modularity, want)
	}
	if res.TotalIterations == 0 || len(res.Phases) == 0 {
		t.Fatalf("missing stats: %+v", res)
	}
}

func TestRunEmptyAndTinyGraphs(t *testing.T) {
	res := Run(graph.NewBuilder(0).Build(), Options{})
	if len(res.Comm) != 0 {
		t.Fatal("empty graph result not empty")
	}
	// Single vertex.
	res = Run(graph.NewBuilder(1).Build(), Options{})
	if len(res.Comm) != 1 {
		t.Fatal("singleton graph")
	}
	// Two isolated vertices: no edges, Q stays 0, one community each.
	res = Run(graph.NewBuilder(2).Build(), Options{})
	if res.Comm[0] == res.Comm[1] {
		t.Fatal("isolated vertices merged")
	}
}

func TestRunSingleEdge(t *testing.T) {
	b := graph.NewBuilder(2)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	res := Run(b.Build(), Options{})
	if res.Comm[0] != res.Comm[1] {
		t.Fatalf("endpoints of the only edge should merge: %v", res.Comm)
	}
	// One community holding everything: Q = 0 for a single edge.
	if math.Abs(res.Modularity) > 1e-12 {
		t.Fatalf("Q = %g", res.Modularity)
	}
}

func TestRunRespectsMaxPhases(t *testing.T) {
	_, edges := gen.ErdosRenyi(200, 800, 3)
	g := gen.Build(200, edges)
	res := Run(g, Options{MaxPhases: 1})
	if len(res.Phases) != 1 {
		t.Fatalf("phases = %d", len(res.Phases))
	}
}

func TestRunRespectsMaxIterations(t *testing.T) {
	_, edges := gen.ErdosRenyi(200, 800, 3)
	g := gen.Build(200, edges)
	res := Run(g, Options{MaxIterations: 1})
	for _, ph := range res.Phases {
		if ph.Iterations > 1 {
			t.Fatalf("phase ran %d iterations", ph.Iterations)
		}
	}
}

func TestRunPlantedPartitionQuality(t *testing.T) {
	n, edges, truth := gen.PlantedPartition(8, 30, 0.4, 0.002, 7)
	g := gen.Build(n, edges)
	res := Run(g, Options{})
	// Louvain should score at least as well as the planted partition.
	planted := Modularity(g, truth)
	if res.Modularity < planted-0.02 {
		t.Fatalf("Louvain Q=%.4f well below planted Q=%.4f", res.Modularity, planted)
	}
	if res.Communities < 4 || res.Communities > 16 {
		t.Fatalf("found %d communities for 8 planted", res.Communities)
	}
}

func TestRunModularityIncreasesAcrossPhases(t *testing.T) {
	n, edges, _ := gen.PlantedPartition(10, 20, 0.5, 0.01, 5)
	g := gen.Build(n, edges)
	res := Run(g, Options{})
	for i := 1; i < len(res.Phases); i++ {
		if res.Phases[i].Modularity < res.Phases[i-1].Modularity-1e-9 {
			t.Fatalf("modularity decreased across phases: %+v", res.Phases)
		}
	}
}

func TestCoarsenPreservesWeightAndModularity(t *testing.T) {
	n, edges, truth := gen.PlantedPartition(5, 20, 0.5, 0.02, 11)
	g := gen.Build(n, edges)
	coarse, renumber := Coarsen(g, truth)
	if coarse.N != 5 {
		t.Fatalf("coarse N = %d", coarse.N)
	}
	if err := coarse.Validate(true); err != nil {
		t.Fatal(err)
	}
	if math.Abs(coarse.TotalWeight()-g.TotalWeight()) > 1e-9 {
		t.Fatalf("m2 changed: %g -> %g", g.TotalWeight(), coarse.TotalWeight())
	}
	// Modularity of the assignment equals modularity of the identity
	// partition on the coarse graph.
	fine := Modularity(g, truth)
	identity := make([]int64, coarse.N)
	for v := range identity {
		identity[v] = int64(v)
	}
	if cq := Modularity(coarse, identity); math.Abs(cq-fine) > 1e-9 {
		t.Fatalf("coarse Q=%g fine Q=%g", cq, fine)
	}
	// Renumber covers all labels densely.
	seen := map[int64]bool{}
	for _, nw := range renumber {
		if nw < 0 || nw >= coarse.N || seen[nw] {
			t.Fatalf("renumber not a dense bijection: %v", renumber)
		}
		seen[nw] = true
	}
}

func TestCoarsenIdentityPartition(t *testing.T) {
	g := twoCliques()
	comm := make([]int64, g.N)
	for v := range comm {
		comm[v] = int64(v)
	}
	coarse, _ := Coarsen(g, comm)
	if coarse.N != g.N || coarse.NumArcs() != g.NumArcs() {
		t.Fatalf("identity coarsening changed the graph: N %d->%d arcs %d->%d",
			g.N, coarse.N, g.NumArcs(), coarse.NumArcs())
	}
}

func TestCoarsenSelfLoopAccumulation(t *testing.T) {
	// Coarsening both endpoints of a weight-3 edge into one community must
	// yield a self loop of weight 6 (both stored arcs).
	b := graph.NewBuilder(2)
	if err := b.AddEdge(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	coarse, _ := Coarsen(b.Build(), []int64{0, 0})
	if coarse.N != 1 {
		t.Fatalf("N = %d", coarse.N)
	}
	if w := coarse.SelfLoopWeight(0); w != 6 {
		t.Fatalf("self loop = %g, want 6", w)
	}
}

func TestCommunityHelpers(t *testing.T) {
	comm := []int64{3, 3, 9, 9, 9, 7}
	if c := CommunityCount(comm); c != 3 {
		t.Fatalf("count = %d", c)
	}
}

// Property: Run's final labels are dense in [0, Communities) and the
// reported modularity matches an independent recomputation.
func TestQuickRunConsistency(t *testing.T) {
	f := func(seed uint64, nComm uint8) bool {
		k := int(nComm%5) + 2
		n, edges, _ := gen.PlantedPartition(k, 12, 0.5, 0.02, seed)
		g := gen.Build(n, edges)
		res := Run(g, Options{})
		if int64(len(res.Comm)) != n {
			return false
		}
		maxLabel := int64(-1)
		seen := map[int64]bool{}
		for _, c := range res.Comm {
			if c < 0 {
				return false
			}
			if c > maxLabel {
				maxLabel = c
			}
			seen[c] = true
		}
		if int64(len(seen)) != res.Communities || maxLabel != res.Communities-1 {
			return false
		}
		return math.Abs(Modularity(g, res.Comm)-res.Modularity) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: coarsening any assignment preserves total weight exactly and
// modularity up to float error.
func TestQuickCoarsenInvariants(t *testing.T) {
	f := func(seed uint64, labels []uint8) bool {
		n, edges := gen.ErdosRenyi(40, 120, seed)
		g := gen.Build(n, edges)
		comm := make([]int64, n)
		for v := range comm {
			if len(labels) > 0 {
				comm[v] = int64(labels[v%len(labels)] % 10)
			}
		}
		coarse, renumber := Coarsen(g, comm)
		if math.Abs(coarse.TotalWeight()-g.TotalWeight()) > 1e-9 {
			return false
		}
		identity := make([]int64, coarse.N)
		for v := range identity {
			identity[v] = int64(v)
		}
		if math.Abs(Modularity(coarse, identity)-Modularity(g, comm)) > 1e-9 {
			return false
		}
		// Mapping comm through renumber gives the same modularity.
		mapped := make([]int64, n)
		for v := range mapped {
			mapped[v] = renumber[comm[v]]
		}
		return math.Abs(Modularity(g, mapped)-Modularity(g, comm)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: every move taken inside onePhase increases modularity — checked
// indirectly: a phase's final Q must be >= the initial singleton Q.
func TestQuickPhaseNeverDecreasesModularity(t *testing.T) {
	f := func(seed uint64) bool {
		n, edges := gen.ErdosRenyi(60, 200, seed)
		g := gen.Build(n, edges)
		singletons := make([]int64, n)
		for v := range singletons {
			singletons[v] = int64(v)
		}
		q0 := Modularity(g, singletons)
		comm, q, _ := onePhase(g, Options{Tau: DefaultTau})
		if q < q0-1e-9 {
			return false
		}
		return math.Abs(Modularity(g, comm)-q) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRecoversLFRCommunities(t *testing.T) {
	// On a well-separated LFR benchmark the serial heuristic should score
	// close to (or above) the planted partition and place most vertex
	// pairs correctly.
	n, edges, truth, err := gen.LFR(gen.DefaultLFR(3000, 0.15, 41))
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Build(n, edges)
	res := Run(g, Options{})
	planted := Modularity(g, truth)
	if res.Modularity < planted-0.03 {
		t.Fatalf("Q=%.4f well below planted %.4f", res.Modularity, planted)
	}
	// Sample pairs within planted communities: most should co-reside.
	byComm := map[int64][]int64{}
	for v, c := range truth {
		byComm[c] = append(byComm[c], int64(v))
	}
	together, total := 0, 0
	for _, members := range byComm {
		for i := 1; i < len(members) && i < 10; i++ {
			total++
			if res.Comm[members[0]] == res.Comm[members[i]] {
				together++
			}
		}
	}
	if float64(together) < 0.8*float64(total) {
		t.Fatalf("only %d/%d planted pairs co-detected", together, total)
	}
}
