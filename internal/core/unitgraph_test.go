package core

import (
	"fmt"
	"testing"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
)

// buildWeightedFrames is dgraph.Build through frames reserved as weighted,
// so every arc travels with its weight and the graph keeps W even when every
// weight is 1.
func buildWeightedFrames(c *mpi.Comm, n int64, chunk []graph.RawEdge) (*dgraph.DistGraph, error) {
	s, err := dgraph.NewShuffle(c, n, nil, 1)
	if err != nil {
		return nil, err
	}
	w := s.Writer(0)
	for _, e := range chunk {
		w.Reserve(s.Owner(e.U), 1, false)
		if e.U != e.V {
			w.Reserve(s.Owner(e.V), 1, false)
		}
	}
	s.Alloc()
	for _, e := range chunk {
		w.Put(s.Owner(e.U), e.U, e.V, e.W)
		if e.U != e.V {
			w.Put(s.Owner(e.V), e.V, e.U, e.W)
		}
	}
	return s.Exchange(nil)
}

// TestUnitGraphRunsAsWeighted: an unweighted input assembled through unit
// frames — W nil on the simple LFR graph, W from the first merge on R-MAT's
// parallel edges — and through frames that carry every 1.0 runs the same
// trajectory, move for move and Q bit for Q bit, to the same labels, at 1, 2
// and 3 ranks.
func TestUnitGraphRunsAsWeighted(t *testing.T) {
	ln, lfr, _, err := gen.LFR(gen.DefaultLFR(1500, 0.3, 4))
	if err != nil {
		t.Fatal(err)
	}
	rn, rmat, err := gen.RMAT(10, 8, .57, .19, .19, .05, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name  string
		n     int64
		edges []graph.RawEdge
	}{{"lfr", ln, lfr}, {"rmat", rn, rmat}} {
		for p := 1; p <= 3; p++ {
			run := func(weighted bool) *Result {
				res, err := mpi.RunCollect(p, func(c *mpi.Comm) (*Result, error) {
					lo, hi := gio.SegmentRange(int64(len(g.edges)), c.Rank(), p)
					build := func() (*dgraph.DistGraph, error) { return dgraph.Build(c, g.n, g.edges[lo:hi], nil) }
					if weighted {
						build = func() (*dgraph.DistGraph, error) { return buildWeightedFrames(c, g.n, g.edges[lo:hi]) }
					}
					dg, err := build()
					if err != nil {
						return nil, err
					}
					if weighted && dg.W == nil {
						return nil, fmt.Errorf("rank %d: weighted frames gave a graph without W", c.Rank())
					}
					if !weighted && g.name == "lfr" && dg.W != nil {
						return nil, fmt.Errorf("rank %d: the simple unweighted input kept W", c.Rank())
					}
					cfg := Baseline()
					cfg.GatherOutput = true
					return Run(dg, cfg)
				})
				if err != nil {
					t.Fatalf("%s p=%d weighted=%v: %v", g.name, p, weighted, err)
				}
				return res[0]
			}
			sameTrajectory(t, fmt.Sprintf("%s p=%d", g.name, p), run(false), run(true))
		}
	}
}
