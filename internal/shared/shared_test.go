package shared

import (
	"math"
	"testing"

	"distlouvain/internal/core"
	"distlouvain/internal/gen"
	"distlouvain/internal/graph"
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

// TestRunMaxCaps holds the phase and iteration caps on the shared-memory
// shape: one rank with a worker team of two. The tables set the caps through
// core.Config, which is what Run hands core.
func TestRunMaxCaps(t *testing.T) {
	_, edges := gen.ErdosRenyi(150, 600, 4)
	g := gen.Build(150, edges)
	res, err := core.RunOnEdges(1, g.N, g.UndirectedEdges(), core.Config{Threads: 2, MaxPhases: 1, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 1 || res.Phases[0].Iterations > 2 {
		t.Fatalf("caps ignored: %+v", res.Phases)
	}
}

func TestRuntimeRecorded(t *testing.T) {
	res := run(t, twoCliques(), Options{})
	if res.Runtime <= 0 {
		t.Fatal("runtime not recorded")
	}
}
