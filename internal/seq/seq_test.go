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
	res := Run(graph.FromRawEdges(0, nil), Options{})
	if len(res.Comm) != 0 {
		t.Fatal("empty graph result not empty")
	}
	// Single vertex.
	res = Run(graph.FromRawEdges(1, nil), Options{})
	if len(res.Comm) != 1 {
		t.Fatal("singleton graph")
	}
	// Two isolated vertices: no edges, Q stays 0, one community each.
	res = Run(graph.FromRawEdges(2, nil), Options{})
	if res.Comm[0] == res.Comm[1] {
		t.Fatal("isolated vertices merged")
	}
}

func TestRunSingleEdge(t *testing.T) {
	res := Run(graph.FromRawEdges(2, []graph.RawEdge{{U: 0, V: 1, W: 1}}), Options{})
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
	planted := certifiedQ(t, g, truth)
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
	fine := certifiedQ(t, g, truth)
	identity := make([]int64, coarse.N)
	for v := range identity {
		identity[v] = int64(v)
	}
	if cq := certifiedQ(t, coarse, identity); math.Abs(cq-fine) > 1e-9 {
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
	coarse, _ := Coarsen(graph.FromRawEdges(2, []graph.RawEdge{{U: 0, V: 1, W: 3}}), []int64{0, 0})
	if coarse.N != 1 {
		t.Fatalf("N = %d", coarse.N)
	}
	if w := coarse.SelfLoopWeight(0); w != 6 {
		t.Fatalf("self loop = %g, want 6", w)
	}
}

// Property: Run's final labels, certified from the raw edge list, are dense
// in [0, Communities) and give the reported modularity.
func TestQuickRunConsistency(t *testing.T) {
	f := func(seed uint64, nComm uint8) bool {
		k := int(nComm%5) + 2
		n, edges, _ := gen.PlantedPartition(k, 12, 0.5, 0.02, seed)
		g := gen.Build(n, edges)
		res := Run(g, Options{})
		_, err := Check(n, graph.Edges(edges), res.Comm, res.Modularity, res.Communities)
		return err == nil
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
		if math.Abs(certifiedQ(t, coarse, identity)-certifiedQ(t, g, comm)) > 1e-9 {
			return false
		}
		// Mapping comm through renumber gives the same modularity.
		mapped := make([]int64, n)
		for v := range mapped {
			mapped[v] = renumber[comm[v]]
		}
		return math.Abs(certifiedQ(t, g, mapped)-certifiedQ(t, g, comm)) < 1e-9
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
		q0 := certifiedQ(t, g, singletons)
		comm, q, _ := onePhase(g, Options{Tau: DefaultTau})
		if q < q0-1e-9 {
			return false
		}
		return math.Abs(certifiedQ(t, g, comm)-q) < 1e-9
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
	planted := certifiedQ(t, g, truth)
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
