package core

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/frontier"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
)

// The frontier differential harness: the full scan (oracle.fullScan) is the
// oracle, and the frontier under every representation must retrace it
// move-for-move and bit-for-bit — the same proof standard the flat kernels and the wire diet
// are held to. The matrix covers the paper variants whose activity
// machinery interacts with the frontier (baseline, TC, ETC), rank counts
// (ghost-delta marking across partitions), representation modes, thread
// counts, and kill→resume.

// frontierGraphs are the differential inputs: an Erdős–Rényi graph, a
// banded mesh (the workload class the frontier targets), a float-weighted
// graph so order-dependence in any frontier path shows up bitwise, and the
// float-weighted LFR of lightVertexWeights, on which community sizes change
// all the time without any A_c changing (rule d's directional marking;
// TestFrontierDirectionalRuleHasCases counts them).
func frontierGraphs() []struct {
	name  string
	n     int64
	edges []graph.RawEdge
} {
	ern, erEdges := gen.ErdosRenyi(300, 1500, 5)
	meshN, meshEdges := gen.Grid2D(18, 18, false)
	fn, fEdges := gen.ErdosRenyi(250, 1200, 17)
	ln, lEdges := lightLFR()
	return []struct {
		name  string
		n     int64
		edges []graph.RawEdge
	}{
		{"er", ern, erEdges},
		{"mesh", meshN, meshEdges},
		{"er-float", fn, floatWeights(fEdges)},
		{"lfr-light", ln, lEdges},
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

// lightVertexWeights is floatWeights with every fifth vertex made "light": its
// edges weigh 10⁻¹⁷ of the others'. A light vertex has positive gains and moves
// like any other, but its weighted degree is below half an ulp of any
// community's A, so the community it joins or leaves changes size while A keeps
// its bits.
func lightVertexWeights(edges []graph.RawEdge) []graph.RawEdge {
	out := floatWeights(edges)
	for i, e := range out {
		if e.U%5 == 0 || e.V%5 == 0 {
			out[i].W *= 1e-17
		}
	}
	return out
}

// lightLFR is LFR 1000 (μ = 0.3) under lightVertexWeights.
func lightLFR() (int64, []graph.RawEdge) {
	n, edges, _, err := gen.LFR(gen.DefaultLFR(1000, 0.3, 23))
	if err != nil {
		panic(err)
	}
	return n, lightVertexWeights(edges)
}

// TestFrontierDirectionalRuleHasCases: rule (d) marks by the sign of ΔA_c and
// ignores a size that changes away from {0, 1}; TestFrontierMatchesFullScan
// holds it to the full scan on lightLFR, an input chosen because sizes change
// there and A does not. (An Erdős–Rényi graph does not serve: its phases end
// after two iterations, every community still at size ≤ 1, where the rule marks
// both ways as before; LFR's planted communities keep phase 0 going.) This test
// drives phase 0 of that input by hand and counts, on the owned tables, the
// changes the rule skips (size moved, A did not) and the ones it marks one way
// only, so the differential cannot quietly stop covering what it is there for.
func TestFrontierDirectionalRuleHasCases(t *testing.T) {
	n, edges := lightLFR()
	type counts struct{ sizeOnly, oneWay, both int }
	out, err := mpi.RunCollect(2, func(c *mpi.Comm) (counts, error) {
		var k counts
		st, err := baselinePhaseState(c, n, edges)
		if err != nil {
			return k, err
		}
		ln := st.dg.LocalN
		prevA, prevSize := slices.Clone(st.cA[:ln]), slices.Clone(st.cSize[:ln])
		st.afterFetch = func() error {
			for lc := int64(0); lc < ln; lc++ {
				a0, s0, a1, s1 := prevA[lc], prevSize[lc], st.cA[lc], st.cSize[lc]
				switch {
				case a0 == a1 && s0 == s1:
				case s0 <= 1 || s1 <= 1:
					k.both++
				case a0 == a1:
					k.sizeOnly++
				default:
					k.oneWay++
				}
			}
			copy(prevA, st.cA[:ln])
			copy(prevSize, st.cSize[:ln])
			return nil
		}
		_, err = st.iterate(st.cfg.Tau)
		return k, err
	})
	if err != nil {
		t.Fatal(err)
	}
	var k counts
	for _, o := range out {
		k.sizeOnly += o.sizeOnly
		k.oneWay += o.oneWay
		k.both += o.both
	}
	t.Logf("phase 0 at 2 ranks: %d size-only changes, %d one-way, %d both-ways", k.sizeOnly, k.oneWay, k.both)
	if k.sizeOnly < 10 || k.oneWay < 100 {
		t.Fatalf("%d size-only and %d one-way changes in phase 0; the input no longer exercises the directional rule", k.sizeOnly, k.oneWay)
	}
}

// TestFrontierUnmarkedVerticesWouldStay checks the frontier's invariant where
// it is stated rather than through its consequences: at the start of every
// sweep, every vertex the frontier leaves out (and ET has not retired) is
// evaluated anyway, and must decide to stay. Trajectory equality with the full
// scan only notices a missed vertex whose move would have shown in a later Q;
// this notices every one, which is what tells a rule (d) that marks the wrong
// side of a change (members when A_c fell, neighbours when it rose) from the
// right one.
func TestFrontierUnmarkedVerticesWouldStay(t *testing.T) {
	type input struct {
		name  string
		n     int64
		edges []graph.RawEdge
	}
	var inputs []input
	n, edges := gen.Grid2D(18, 18, false)
	inputs = append(inputs, input{"grid", n, edges})
	n, edges = gen.BandedMesh(600, 4)
	inputs = append(inputs, input{"band", n, edges})
	n, edges, _, err := gen.LFR(gen.DefaultLFR(1000, 0.3, 23))
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"lfr", n, edges}, input{"lfr-light", n, lightVertexWeights(edges)})
	for _, in := range inputs {
		for _, v := range []Config{Baseline(), ETC(0.25)} {
			for _, ranks := range []int{1, 2, 3} {
				checked, err := mpi.RunCollect(ranks, func(c *mpi.Comm) (int, error) {
					checked := 0
					lo, hi := gio.SegmentRange(int64(len(in.edges)), c.Rank(), ranks)
					dg, err := dgraph.Build(c, in.n, in.edges[lo:hi], nil)
					if err != nil {
						return 0, err
					}
					for phase := 0; phase < 4; phase++ {
						cfg := v
						cfg.Threads = 1
						cfg.fill()
						st, err := newPhaseState(dg, &cfg, phase, &StepTimes{})
						if err != nil {
							return 0, err
						}
						var acc rowAcc
						var bad error
						sweepBody := st.sweepBody
						st.sweepBody = func(w, lo, hi int) {
							acc.fit(len(st.refs))
							for lv := int64(0); lv < st.dg.LocalN && bad == nil; lv++ {
								if st.fr.cur.Has(lv) || st.inactive[lv] {
									continue
								}
								checked++
								if mv, ok, refused := st.evaluateVertex(lv, &acc); ok || refused {
									bad = fmt.Errorf("phase %d iteration %d: vertex %d is outside the frontier and would move to community %d (refused: %v)",
										phase, st.sweepIter, st.dg.Global(lv), st.gidOf(mv.to), refused)
								}
							}
							sweepBody(w, lo, hi)
						}
						if _, err := st.iterate(cfg.Tau); err != nil {
							return 0, err
						}
						if bad != nil {
							return 0, bad
						}
						ndg, _, err := st.rebuild()
						if err != nil {
							return 0, err
						}
						if ndg.GlobalN == dg.GlobalN {
							break
						}
						dg = ndg
					}
					return checked, nil
				})
				if err != nil {
					t.Fatalf("%s %s ranks=%d: %v", in.name, v.VariantName(), ranks, err)
				}
				if !slices.ContainsFunc(checked, func(k int) bool { return k > 0 }) {
					t.Fatalf("%s %s ranks=%d: the frontier never left a vertex out", in.name, v.VariantName(), ranks)
				}
			}
		}
	}
}
