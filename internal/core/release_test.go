package core

import (
	"fmt"
	"sync"
	"testing"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
)

// scribbler is a transport that overwrites every payload handed to Release
// before passing it on, as the pool may reissue it at once: a receiver that
// reads a frame after releasing it decodes garbage, whichever rank runs
// first.
type scribbler struct{ mpi.Transport }

func (s scribbler) Release(data []byte) {
	data = data[:cap(data)]
	for i := range data {
		data[i] = 0xa5
	}
	s.Transport.Release(data)
}

// runScribbled is RunOnEdges over scribbler endpoints.
func runScribbled(p int, n int64, edges []graph.RawEdge, cfg Config) (*Result, error) {
	cfg.GatherOutput = true
	w, err := mpi.NewInprocWorld(p)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	results := make([]*Result, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := mpi.NewComm(scribbler{w.Endpoint(r)})
			lo, hi := gio.SegmentRange(int64(len(edges)), r, p)
			dg, err := dgraph.Build(c, n, edges[lo:hi], nil)
			if err == nil {
				results[r], err = Run(dg, cfg)
			}
			if err != nil {
				errs[r] = fmt.Errorf("rank %d: %w", r, err)
				w.Close()
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results[0], nil
}

// TestFramesReleasedOnlyOnceDecoded: the shuffle and every per-iteration
// exchange of core release a received frame only after its last read, so a
// run over a transport that scribbles over each released frame is the plain
// run bit for bit — on unit and float weights, at 2 and 3 ranks, with the
// frontier, the full scan and early termination.
func TestFramesReleasedOnlyOnceDecoded(t *testing.T) {
	n, lfr, _, err := gen.LFR(gen.DefaultLFR(1500, 0.3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		edges []graph.RawEdge
	}{{"unit", lfr}, {"float", floatWeights(lfr)}} {
		for _, p := range []int{2, 3} {
			fullScan := Baseline()
			fullScan.oracle.fullScan = true
			for name, cfg := range map[string]Config{"frontier": Baseline(), "full scan": fullScan, "etc": ETC(0.25)} {
				label := fmt.Sprintf("%s p=%d %s", tc.name, p, name)
				want, err := RunOnEdges(p, n, tc.edges, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got, err := runScribbled(p, n, tc.edges, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameTrajectory(t, label, got, want)
			}
		}
	}
}
