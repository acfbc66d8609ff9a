package core

import (
	"fmt"
	"math"
	"testing"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
	"distlouvain/internal/seq"
)

// withDistGraph builds the distributed graph over p ranks and runs body.
func withDistGraph(t *testing.T, p int, n int64, edges []graph.RawEdge, body func(dg *dgraph.DistGraph) error) {
	t.Helper()
	err := mpi.Run(p, func(c *mpi.Comm) error {
		lo, hi := gio.SegmentRange(int64(len(edges)), c.Rank(), p)
		dg, err := dgraph.Build(c, n, edges[lo:hi], nil)
		if err != nil {
			return err
		}
		return body(dg)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistColoringValid(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for _, mk := range []func() (int64, []graph.RawEdge){
			func() (int64, []graph.RawEdge) { return gen.Grid2D(30, 30, true) },
			func() (int64, []graph.RawEdge) { n, e := gen.ErdosRenyi(300, 1500, 3); return n, e },
			func() (int64, []graph.RawEdge) { n, e, _, _ := gen.LFR(gen.DefaultLFR(1000, 0.3, 5)); return n, e },
		} {
			n, edges := mk()
			withDistGraph(t, p, n, edges, func(dg *dgraph.DistGraph) error {
				color, nc, err := DistColoring(dg, 7)
				if err != nil {
					return err
				}
				if nc <= 0 {
					return fmt.Errorf("no colors")
				}
				for lv, c := range color {
					if c < 0 || int(c) >= nc {
						return fmt.Errorf("vertex %d has color %d of %d", lv, c, nc)
					}
				}
				ok, err := ValidateDistColoring(dg, color)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("p=%d: adjacent vertices share a color", p)
				}
				return nil
			})
		}
	}
}

func TestDistColoringMatchesAcrossRankCounts(t *testing.T) {
	// The number of colors should stay small (max degree + 1 bound) no
	// matter how the graph is split.
	n, edges := gen.Grid2D(20, 20, true)
	maxDeg := int64(8)
	for _, p := range []int{1, 3} {
		withDistGraph(t, p, n, edges, func(dg *dgraph.DistGraph) error {
			_, nc, err := DistColoring(dg, 1)
			if err != nil {
				return err
			}
			if int64(nc) > maxDeg+1 {
				return fmt.Errorf("p=%d: %d colors for max degree %d", p, nc, maxDeg)
			}
			return nil
		})
	}
}

func TestColoredVariantConsistency(t *testing.T) {
	// UseColoring must keep all structural invariants: exact modularity,
	// dense labels, comparable quality.
	n, edges, _ := gen.PlantedPartition(6, 20, 0.5, 0.01, 61)
	g := gen.Build(n, edges)
	plain, err := RunOnEdges(3, n, edges, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Baseline()
	cfg.UseColoring = true
	colored, err := RunOnEdges(3, n, edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seq.Modularity(g, colored.GlobalComm)-colored.Modularity) > 1e-9 {
		t.Fatal("colored run reports wrong modularity")
	}
	if colored.Modularity < plain.Modularity-0.05 {
		t.Fatalf("coloring hurt quality badly: %.4f vs %.4f", colored.Modularity, plain.Modularity)
	}
	if colored.Phases[0].Colors == 0 {
		t.Fatal("colors not recorded in phase stats")
	}
}

func TestEmptyRankColoring(t *testing.T) {
	// Ranks without vertices must still participate in coloring rounds.
	n, edges := gen.Grid2D(4, 4, false)
	withDistGraph(t, 7, n, edges, func(dg *dgraph.DistGraph) error {
		color, _, err := DistColoring(dg, 3)
		if err != nil {
			return err
		}
		ok, err := ValidateDistColoring(dg, color)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("invalid coloring with empty ranks")
		}
		return nil
	})
}
