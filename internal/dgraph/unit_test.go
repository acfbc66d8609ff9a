package dgraph

import (
	"fmt"
	"slices"
	"testing"

	"distlouvain/internal/gen"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
)

// buildWeighted is Build through a weighted shuffle whatever the weights are:
// every arc travels with its weight, 1.0 included, so the assembly places
// weights and the graph keeps W.
func buildWeighted(c *mpi.Comm, n int64, chunk []graph.RawEdge) (*DistGraph, error) {
	s := NewShuffle(c, n, 1, true)
	w := s.Writer(0)
	for _, e := range chunk {
		w.Put(s.Owner(e.U), e.U, e.V, e.W)
		if e.U != e.V {
			w.Put(s.Owner(e.V), e.V, e.U, e.W)
		}
	}
	return s.Exchange(nil)
}

// unitRowsAreOnes checks a unit graph: no W, and Row's weights as long as the
// row and all 1.
func unitRowsAreOnes(dg *DistGraph) error {
	if dg.W != nil {
		return fmt.Errorf("rank %d: a unit graph with %d weights", dg.Comm.Rank(), len(dg.W))
	}
	for lv := int64(0); lv < dg.LocalN; lv++ {
		row, ws := dg.Row(lv)
		if len(ws) != len(row) || slices.ContainsFunc(ws, func(w float64) bool { return w != 1 }) {
			return fmt.Errorf("rank %d: vertex %d has %d arcs and weights %v", dg.Comm.Rank(), dg.Global(lv), len(row), ws)
		}
	}
	return nil
}

// TestUnitGraphKeepsNoWeights: an unweighted simple input — a banded mesh,
// and an LFR graph — assembles at 1 to 3 ranks into a graph without W whose
// rows read as weights of 1, and which gathers back to the input.
func TestUnitGraphKeepsNoWeights(t *testing.T) {
	mn, mesh := gen.BandedMesh(300, 4)
	ln, lfr, _, err := gen.LFR(gen.DefaultLFR(600, 0.3, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		n     int64
		edges []graph.RawEdge
	}{{"mesh", mn, mesh}, {"lfr", ln, lfr}} {
		want := graph.FromRawEdges(tc.n, tc.edges)
		if want.NumArcs() != int64(2*len(tc.edges)) {
			t.Fatalf("%s has parallel edges or self loops", tc.name)
		}
		for p := 1; p <= 3; p++ {
			err := mpi.Run(p, func(c *mpi.Comm) error {
				dg, err := Build(c, tc.n, chunkEdges(tc.edges, c.Rank(), p), nil)
				if err != nil {
					return err
				}
				if err := dg.Validate(); err != nil {
					return err
				}
				if err := unitRowsAreOnes(dg); err != nil {
					return err
				}
				got, err := dg.GatherToRoot()
				if err != nil || c.Rank() != 0 {
					return err
				}
				if !slices.Equal(got.Index, want.Index) || !slices.Equal(got.Edges, want.Edges) {
					return fmt.Errorf("the gathered graph is not the input")
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s p=%d: %v", tc.name, p, err)
			}
		}
	}
}

// TestUnitParallelArcsMaterialiseW: a unit-weight input with one parallel
// edge and one repeated self loop gives its graph W at the first merge — 2
// for the merged arcs, 1 for every other, those written before the merge
// included — at 1 and 2 ranks (each of the two holds a merge).
func TestUnitParallelArcsMaterialiseW(t *testing.T) {
	const n = 12
	var edges []graph.RawEdge
	for v := int64(0); v+1 < n; v++ {
		edges = append(edges, graph.RawEdge{U: v, V: v + 1, W: 1})
	}
	edges = append(edges, graph.RawEdge{U: 2, V: 1, W: 1}, graph.RawEdge{U: 10, V: 10, W: 1}, graph.RawEdge{U: 10, V: 10, W: 1})
	weight := func(u, v int64) float64 {
		switch {
		case min(u, v) == 1 && max(u, v) == 2, u == 10 && v == 10:
			return 2
		}
		return 1
	}
	for p := 1; p <= 2; p++ {
		err := mpi.Run(p, func(c *mpi.Comm) error {
			dg, err := Build(c, n, chunkEdges(edges, c.Rank(), p), nil)
			if err != nil {
				return err
			}
			if err := dg.Validate(); err != nil {
				return err
			}
			if dg.W == nil {
				return fmt.Errorf("rank %d: no W although arcs merged", c.Rank())
			}
			for lv := int64(0); lv < dg.LocalN; lv++ {
				row, ws := dg.Row(lv)
				for i, s := range row {
					u, v := dg.Global(lv), dg.Target(s)
					if ws[i] != weight(u, v) {
						return fmt.Errorf("arc (%d,%d) weighs %v, want %v", u, v, ws[i], weight(u, v))
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestUnitFramesMatchWeightedFrames: one unweighted edge list assembled
// through unit frames and through frames that carry every weight gives the
// same graph — Index, Slot, K, SelfLoop, Ghosts and Row's
// weights, bit for bit — whether or not parallel arcs make the unit graph
// keep W, at 1 to 3 ranks.
func TestUnitFramesMatchWeightedFrames(t *testing.T) {
	ln, lfr, _, err := gen.LFR(gen.DefaultLFR(800, 0.3, 5))
	if err != nil {
		t.Fatal(err)
	}
	rn, rmat, err := gen.RMAT(10, 8, .57, .19, .19, .05, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		n     int64
		edges []graph.RawEdge
		keepW bool
	}{{"lfr", ln, lfr, false}, {"rmat", rn, rmat, true}} {
		for p := 1; p <= 3; p++ {
			err := mpi.Run(p, func(c *mpi.Comm) error {
				chunk := chunkEdges(tc.edges, c.Rank(), p)
				unit, err := Build(c, tc.n, chunk, nil)
				if err != nil {
					return err
				}
				weighted, err := buildWeighted(c, tc.n, chunk)
				if err != nil {
					return err
				}
				if (unit.W != nil) != tc.keepW || weighted.W == nil {
					return fmt.Errorf("rank %d: unit graph has W %v, weighted graph %v", c.Rank(), unit.W != nil, weighted.W != nil)
				}
				if err := unit.Validate(); err != nil {
					return err
				}
				return sameGraph(unit, weighted)
			})
			if err != nil {
				t.Fatalf("%s p=%d: %v", tc.name, p, err)
			}
		}
	}
}
