package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
)

// startWorld runs Start on p in-process ranks and returns each rank's error,
// rank 0's result, the phase rank 0's run started from (-1 if it started
// none) and how many ranks built the input. A world that does not finish
// within a minute fails the test as hung.
func startWorld(t *testing.T, p int, n int64, edges []graph.RawEdge, cfg Config) (errs []error, root *Result, first, builds int) {
	t.Helper()
	cfg.GatherOutput = true
	world, err := mpi.NewInprocWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	errs, first = make([]error, p), -1
	var built atomic.Int32
	build := func(c *mpi.Comm) (*dgraph.DistGraph, error) {
		built.Add(1)
		lo, hi := gio.SegmentRange(int64(len(edges)), c.Rank(), c.Size())
		return dgraph.Build(c, n, edges[lo:hi], nil)
	}
	var wg sync.WaitGroup
	for r := range p {
		rcfg := cfg
		if r == 0 {
			rcfg.Progress = func(ev ProgressEvent) {
				if ev.Kind == ProgressPhaseStart && first < 0 {
					first = ev.Phase
				}
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Start(mpi.NewComm(world.Endpoint(r)), n, rcfg, build)
			errs[r] = err
			if r == 0 {
				root = res
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatalf("Start on %d ranks hung", p)
	}
	return errs, root, first, int(built.Load())
}

// TestStartDecidesResume pins the one resume decision on 1–3 ranks: Start
// builds and runs from phase 0 on an empty directory, continues a committed
// checkpoint without building (bit-identical to the undisturbed run), and
// refuses, on every rank, a checkpoint of another configuration or of a
// graph with another vertex count.
func TestStartDecidesResume(t *testing.T) {
	n, edges := gen.ErdosRenyi(300, 1500, 5)
	want, err := RunOnEdges(3, n, edges, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 3; p++ {
		cfg := Baseline()
		cfg.CheckpointDir = t.TempDir()
		label := "p=" + string(rune('0'+p))

		errs, res, first, builds := startWorld(t, p, n, edges, cfg)
		for r, err := range errs {
			if err != nil {
				t.Fatalf("%s cold start, rank %d: %v", label, r, err)
			}
		}
		if first != 0 || builds != p {
			t.Fatalf("%s cold start began at phase %d with %d builds, want phase 0 and %d", label, first, builds, p)
		}
		sameOutcome(t, label+" cold start", res, want)

		// The completed run left its last boundary's checkpoint behind.
		errs, res, first, builds = startWorld(t, p, n, edges, cfg)
		for r, err := range errs {
			if err != nil {
				t.Fatalf("%s continue, rank %d: %v", label, r, err)
			}
		}
		if first < 1 || builds != 0 {
			t.Fatalf("%s continue began at phase %d with %d builds, want a later phase and none", label, first, builds)
		}
		sameOutcome(t, label+" continue", res, want)

		other := cfg
		other.Seed = 42 // another trajectory
		errs, _, _, builds = startWorld(t, p, n, edges, other)
		for r, err := range errs {
			if err == nil {
				t.Fatalf("%s fingerprint mismatch: rank %d went ahead", label, r)
			}
		}
		if !strings.Contains(errs[0].Error(), "config fingerprint") || builds != 0 {
			t.Fatalf("%s fingerprint mismatch: rank 0 error %v, %d builds", label, errs[0], builds)
		}

		errs, _, _, builds = startWorld(t, p, n+1, edges, cfg)
		for r, err := range errs {
			if err == nil {
				t.Fatalf("%s vertex-count mismatch: rank %d went ahead", label, r)
			}
		}
		if !strings.Contains(errs[0].Error(), "-vertex graph") || builds != 0 {
			t.Fatalf("%s vertex-count mismatch: rank 0 error %v, %d builds", label, errs[0], builds)
		}
	}
}
