package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"distlouvain/internal/frontier"
	"distlouvain/internal/gen"
	"distlouvain/internal/graph"
)

// The frontier differential harness: the full scan (oracle.fullScan) is the
// oracle, and the frontier under every representation must retrace it
// move-for-move and bit-for-bit — the same proof standard the flat kernels and the wire diet
// are held to. The matrix covers the paper variants whose activity
// machinery interacts with the frontier (baseline, TC, ETC), rank counts
// (ghost-delta marking across partitions), representation modes, thread
// counts, and kill→resume.

// frontierGraphs are the differential inputs: an Erdős–Rényi graph, a
// banded mesh (the workload class the frontier targets), and a
// float-weighted graph so order-dependence in any frontier path shows up
// bitwise.
func frontierGraphs() []struct {
	name  string
	n     int64
	edges []graph.RawEdge
} {
	ern, erEdges := gen.ErdosRenyi(300, 1500, 5)
	meshN, meshEdges := gen.Grid2D(18, 18, false)
	fn, fEdges := gen.ErdosRenyi(250, 1200, 17)
	return []struct {
		name  string
		n     int64
		edges []graph.RawEdge
	}{
		{"er", ern, erEdges},
		{"mesh", meshN, meshEdges},
		{"er-float", fn, floatWeights(fEdges)},
	}
}

func frontierVariants() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"baseline", Baseline()},
		{"tc", ThresholdCycling()},
		{"etc", ETC(0.25)},
	}
}

// TestFrontierMatchesFullScan is the core differential: 3 graphs × 3
// variants × {1,2,4} ranks × {dense, sparse, auto} against the full-scan
// oracle at the same rank count (float summation order legitimately depends
// on the partition, so oracles are per rank count).
func TestFrontierMatchesFullScan(t *testing.T) {
	modes := []struct {
		name string
		rep  frontier.Rep
	}{
		{"dense", frontier.RepDense},
		{"sparse", frontier.RepSparse},
		{"auto", frontier.RepAuto},
	}
	for _, g := range frontierGraphs() {
		for _, v := range frontierVariants() {
			t.Run(g.name+"/"+v.name, func(t *testing.T) {
				for _, ranks := range []int{1, 2, 4} {
					ref := v.cfg
					ref.Threads = 2
					ref.oracle.fullScan = true
					want, err := RunOnEdges(ranks, g.n, g.edges, ref)
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range modes {
						cfg := v.cfg
						cfg.Threads = 2
						cfg.oracle.rep = m.rep
						got, err := RunOnEdges(ranks, g.n, g.edges, cfg)
						if err != nil {
							t.Fatal(err)
						}
						sameTrajectory(t, fmt.Sprintf("ranks=%d mode=%s", ranks, m.name), got, want)
					}
				}
			})
		}
	}
}

// TestFrontierThreadInvariance: with integer weights the trajectory is
// thread-count invariant, so every (mode, threads) pair must reproduce the
// single-threaded full scan exactly — the frontier's chunked id-list and
// bitmap scans preserve ascending evaluation order per worker.
func TestFrontierThreadInvariance(t *testing.T) {
	n, edges := gen.ErdosRenyi(300, 1500, 5)
	ref := ETC(0.25)
	ref.Threads = 1
	ref.oracle.fullScan = true
	want, err := RunOnEdges(2, n, edges, ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2, 4} {
		cfg := ETC(0.25)
		cfg.Threads = threads
		got, err := RunOnEdges(2, n, edges, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameTrajectory(t, fmt.Sprintf("threads=%d", threads), got, want)
	}
}

// TestFrontierKillResume: an interrupted frontier run resumed from its
// forced checkpoint must land exactly where the uninterrupted FULL-SCAN run
// lands — resume reseeds the frontier from the full vertex set at the phase
// boundary, so no frontier state needs to live in the snapshot format.
func TestFrontierKillResume(t *testing.T) {
	n, edges := gen.ErdosRenyi(300, 1500, 5)
	ref := Baseline()
	ref.oracle.fullScan = true
	want, err := RunOnEdges(3, n, edges, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Phases) < 2 {
		t.Fatalf("run converged in %d phase(s); nothing left to resume", len(want.Phases))
	}

	dir := t.TempDir()
	var stop atomic.Bool
	cfg := Baseline()
	cfg.CheckpointDir = dir
	cfg.Interrupted = stop.Load
	cfg.Progress = func(ev ProgressEvent) {
		if ev.Kind == ProgressIteration && ev.Phase == 0 {
			stop.Store(true)
		}
	}
	_, err = RunOnEdges(3, n, edges, cfg)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	got := resumeInproc(t, 3, dir, Baseline())
	sameOutcome(t, "frontier resume vs full-scan oracle", got, want)
}

// TestFrontierFloatResumeBitIdentical: the float-weighted variant of the
// resume guarantee with the frontier active — checkpoint, resume at the
// same rank count, and compare against the full-scan oracle bit for bit.
func TestFrontierFloatResumeBitIdentical(t *testing.T) {
	n, edges := gen.ErdosRenyi(300, 1800, 41)
	edges = floatWeights(edges)
	ref := Baseline()
	ref.Threads = 2
	ref.oracle.fullScan = true
	want, err := RunOnEdges(3, n, edges, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Phases) < 2 {
		t.Fatalf("run converged in %d phase(s); no phase boundary to checkpoint", len(want.Phases))
	}
	dir := t.TempDir()
	cfg := Baseline()
	cfg.Threads = 2
	cfg.CheckpointDir = dir
	got, err := RunOnEdges(3, n, edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "checkpointing frontier run", got, want)
	resumeCfg := Baseline()
	resumeCfg.Threads = 2
	sameOutcome(t, "frontier resume", resumeInproc(t, 3, dir, resumeCfg), want)
}

// TestFrontierCountersAndSwitch pins the counter semantics on a mesh: the
// first iteration of a phase offers the whole graph (full seed), touched
// never exceeds the frontier, the frontier shrinks as the phase converges
// (so RepAuto's sparse direction gets exercised after the dense start), and
// the full-scan run reports frontier == graph everywhere.
func TestFrontierCountersAndSwitch(t *testing.T) {
	n, edges := gen.Grid2D(30, 30, false)
	cfg := Baseline()
	cfg.Threads = 2
	res, err := RunOnEdges(2, n, edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shrank := false
	for p, st := range res.Phases {
		if len(st.FrontierTrajectory) != len(st.QTrajectory) || len(st.TouchedTrajectory) != len(st.QTrajectory) {
			t.Fatalf("phase %d: trajectory lengths diverge (%d Q, %d touched, %d frontier)",
				p, len(st.QTrajectory), len(st.TouchedTrajectory), len(st.FrontierTrajectory))
		}
		if len(st.FrontierTrajectory) == 0 {
			continue
		}
		if st.FrontierTrajectory[0] != st.Vertices {
			t.Fatalf("phase %d: first frontier %d != full seed %d", p, st.FrontierTrajectory[0], st.Vertices)
		}
		for i := range st.FrontierTrajectory {
			if st.TouchedTrajectory[i] > st.FrontierTrajectory[i] {
				t.Fatalf("phase %d iter %d: touched %d > frontier %d", p, i, st.TouchedTrajectory[i], st.FrontierTrajectory[i])
			}
		}
		last := len(st.FrontierTrajectory) - 1
		if st.FrontierTrajectory[last] < st.Vertices {
			shrank = true
		}
	}
	if !shrank {
		t.Fatal("frontier never shrank below the full graph on a mesh")
	}

	off := cfg
	off.oracle.fullScan = true
	ores, err := RunOnEdges(2, n, edges, off)
	if err != nil {
		t.Fatal(err)
	}
	for p, st := range ores.Phases {
		for i, f := range st.FrontierTrajectory {
			if f != st.Vertices {
				t.Fatalf("phase %d iter %d: full scan reported frontier %d != %d", p, i, f, st.Vertices)
			}
		}
	}
}

// TestFrontierReducesSweepOnMesh: on the banded channel mesh under ET the
// frontier run must reproduce the full scan's trajectory bit for bit while
// visiting fewer vertices than the full scan (which walks every local vertex
// each iteration just to check the activity coin). FrontierTrajectory records
// exactly that visited count: the active-set size under the frontier, the whole
// graph under the full scan. How many fewer is recorded, not floored: while
// smallest-ID ties made this mesh chase labels for hundreds of near-empty
// iterations the frontier visited under 70% of the full scan; the run is now 28
// iterations, most of them a phase's first few, and the share is 82% (22 426 of
// 27 461 — BENCH_paperbench.json's channel-like-sm row holds the counts
// exactly).
func TestFrontierReducesSweepOnMesh(t *testing.T) {
	n, edges := gen.BandedMesh(2000, 6)
	off := ET(0.25)
	off.Threads = 2
	off.oracle.fullScan = true
	want, err := RunOnEdges(2, n, edges, off)
	if err != nil {
		t.Fatal(err)
	}
	on := ET(0.25)
	on.Threads = 2
	got, err := RunOnEdges(2, n, edges, on)
	if err != nil {
		t.Fatal(err)
	}
	sameTrajectory(t, "et-mesh", got, want)
	sum := func(res *Result) (total int64) {
		for _, st := range res.Phases {
			for _, v := range st.FrontierTrajectory {
				total += v
			}
		}
		return
	}
	fullScan, frontier := sum(want), sum(got)
	if fullScan == 0 {
		t.Fatal("full scan visited nothing")
	}
	if frontier >= fullScan {
		t.Fatalf("frontier visited %d vertices, the full scan %d", frontier, fullScan)
	}
}
