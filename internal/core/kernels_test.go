package core

import (
	"math"
	"slices"
	"testing"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
)

// floatWeights replaces the unit weights of an edge list with deterministic
// non-associative float weights, so any order-dependence in float
// accumulation shows up as a bitwise trajectory difference.
func floatWeights(edges []graph.RawEdge) []graph.RawEdge {
	out := make([]graph.RawEdge, len(edges))
	for i, e := range edges {
		w := 0.3 + float64((e.U*31+e.V*17+int64(i)*7)%97)*0.137
		out[i] = graph.RawEdge{U: e.U, V: e.V, W: w}
	}
	return out
}

// samePhase asserts phase p of two runs is move-for-move and bit-for-bit
// equal: per-iteration modularity bits, move and return counts, damped from
// the same iteration.
func samePhase(t *testing.T, label string, p int, g, w PhaseStat) {
	t.Helper()
	if !slices.Equal(g.MovesTrajectory, w.MovesTrajectory) {
		t.Fatalf("%s: phase %d moves %v vs %v", label, p, g.MovesTrajectory, w.MovesTrajectory)
	}
	if !slices.Equal(g.ReturnsTrajectory, w.ReturnsTrajectory) || g.DampedFrom != w.DampedFrom {
		t.Fatalf("%s: phase %d returns %v damped from %d vs %v from %d", label, p, g.ReturnsTrajectory, g.DampedFrom, w.ReturnsTrajectory, w.DampedFrom)
	}
	if len(g.QTrajectory) != len(w.QTrajectory) {
		t.Fatalf("%s: phase %d ran %d iterations vs %d", label, p, len(g.QTrajectory), len(w.QTrajectory))
	}
	for i := range w.QTrajectory {
		if math.Float64bits(g.QTrajectory[i]) != math.Float64bits(w.QTrajectory[i]) {
			t.Fatalf("%s: phase %d iter %d Q %.17g vs %.17g", label, p, i, g.QTrajectory[i], w.QTrajectory[i])
		}
	}
}

// sameTrajectory asserts two runs are move-for-move and bit-for-bit equal:
// same phase count, same per-iteration modularity bits, move and return
// counts, damped from the same iteration, same final modularity bits, same
// assignment.
func sameTrajectory(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Phases) != len(want.Phases) {
		t.Fatalf("%s: %d phases vs %d", label, len(got.Phases), len(want.Phases))
	}
	for p := range want.Phases {
		samePhase(t, label, p, got.Phases[p], want.Phases[p])
	}
	if math.Float64bits(got.Modularity) != math.Float64bits(want.Modularity) {
		t.Fatalf("%s: modularity %.17g vs %.17g", label, got.Modularity, want.Modularity)
	}
	if !slices.Equal(got.GlobalComm, want.GlobalComm) {
		t.Fatalf("%s: assignments differ", label)
	}
}

// TestFlatKernelsMatchMapReference runs full multi-phase distributed runs
// with the flat kernels and with the map reference kernels and demands
// move-for-move, bit-for-bit identical trajectories. Integer edge weights
// make every float sum order-independent, so the equivalence must hold at
// any thread count.
func TestFlatKernelsMatchMapReference(t *testing.T) {
	n, edges := gen.ErdosRenyi(400, 2400, 11)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"baseline", Baseline()},
		{"et+tc", ETWithTC(0.25)},
		{"etc", ETC(0.25)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, threads := range []int{1, 3} {
				flatCfg := tc.cfg
				flatCfg.Threads = threads
				refCfg := flatCfg
				refCfg.oracle.refKernels = true
				got, err := RunOnEdges(3, n, edges, flatCfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := RunOnEdges(3, n, edges, refCfg)
				if err != nil {
					t.Fatal(err)
				}
				label := "threads=" + string(rune('0'+threads))
				sameTrajectory(t, label, got, want)
			}
		})
	}
}

// TestSweepSteadyStateAllocs pins the claim that an iteration's compute stops
// allocating once the phase-lived buffers have settled: a single-threaded
// sweep allocates nothing (the par.For body is built once per phase), and the
// modularity step over cached rows adds nothing of its own — what it does
// allocate is the transport's allreduce of a five-value vector, measured here
// rather than assumed. TestIterationSteadyStateAllocs covers the whole
// iteration.
func TestSweepSteadyStateAllocs(t *testing.T) {
	n, edges := gen.ErdosRenyi(500, 3000, 7)
	kb, err := NewKernelBench(n, edges, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer kb.Close()
	st := kb.st
	modularityStep := func() {
		if _, _, err := st.modularityAndMoves(0); err != nil {
			t.Fatal(err)
		}
	}
	kb.Sweep() // settle buffer capacities
	modularityStep()
	if allocs := testing.AllocsPerRun(20, func() { kb.Sweep() }); allocs != 0 {
		t.Fatalf("steady-state sweep allocates %.1f times per run, want 0", allocs)
	}
	allreduce := testing.AllocsPerRun(20, func() {
		if _, err := st.dg.Comm.AllreduceFloat64s([]float64{1, 2, 3, 4, 5}, mpi.OpSum); err != nil {
			t.Fatal(err)
		}
	})
	if allocs := testing.AllocsPerRun(20, modularityStep); allocs > allreduce {
		t.Fatalf("steady-state modularity step allocates %.1f times per run, its allreduce alone %.1f", allocs, allreduce)
	}
	for _, stale := range []bool{false, true} {
		if allocs := testing.AllocsPerRun(20, func() { st.rowsStale = stale; st.intraWeight() }); allocs != 0 {
			t.Fatalf("intraWeight (every row stale: %v) allocates %.1f times per run, want 0", stale, allocs)
		}
	}
}

// TestKernelBenchSweepTouchesEveryVertex is the vacuity guard for the sweep
// benchmarks: between iterations the frontier is empty, so a KernelBench
// that forgot to re-seed it would time a sweep over nothing (as it did from
// the day the frontier became the default). Every call — the first and the
// tenth alike — must evaluate all n vertices, and the warm-up must have
// moved some, or CoarseArcs measures an identity renumbering.
func TestKernelBenchSweepTouchesEveryVertex(t *testing.T) {
	n, edges := gen.ErdosRenyi(500, 3000, 7)
	for _, useRef := range []bool{false, true} {
		kb, err := NewKernelBench(n, edges, 1, useRef)
		if err != nil {
			t.Fatal(err)
		}
		for call := 1; call <= 10; call++ {
			kb.Sweep()
			if got := kb.st.iterTouched; got < n {
				t.Fatalf("ref=%v: Sweep call %d touched %d of %d vertices", useRef, call, got, n)
			}
		}
		if coarse, fine := kb.CoarseArcs(), len(kb.st.dg.W); coarse >= fine {
			t.Fatalf("ref=%v: %d coarse arcs from %d fine ones: the warm-up moved nothing", useRef, coarse, fine)
		}
		kb.Close()
	}
}

func benchKernel(b *testing.B, useRef bool, op func(*KernelBench) int) {
	n, edges := gen.ErdosRenyi(5000, 40000, 13)
	kb, err := NewKernelBench(n, edges, 1, useRef)
	if err != nil {
		b.Fatal(err)
	}
	defer kb.Close()
	op(kb) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(kb)
	}
}

// BenchmarkSweepSlots is the shipped sweep: a per-worker array addressed by
// the community slot ci[Slot[i]]. BenchmarkSweepMap is the reference: a Go map
// keyed by global ID, fed by commOf's lookup by global ID.
func BenchmarkSweepSlots(b *testing.B) {
	benchKernel(b, false, func(kb *KernelBench) int { return kb.Sweep() })
}

func BenchmarkSweepMap(b *testing.B) {
	benchKernel(b, true, func(kb *KernelBench) int { return kb.Sweep() })
}

// midPhase is the mid-phase benchmarks' state: phase 0 of LFR 4000 on one
// rank, stopped after its sixth iteration. Every row's intra weight is current,
// so the settle test is on; next holds the rule a–c marks of that iteration and
// the rule-(d) watcher its changed communities, as between two iterations.
func midPhase(b *testing.B) *phaseState {
	n, edges, _, err := gen.LFR(gen.DefaultLFR(4000, 0.3, 1))
	if err != nil {
		b.Fatal(err)
	}
	world, err := mpi.NewInprocWorld(1)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { world.Close() })
	dg, err := dgraph.Build(mpi.NewComm(world.Endpoint(0)), n, edges, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Baseline()
	cfg.MaxIterations = 6
	cfg.fill()
	st, err := newPhaseState(dg, &cfg, 0, &StepTimes{})
	if err != nil {
		b.Fatal(err)
	}
	stat, err := st.iterate(cfg.Tau)
	if err != nil {
		b.Fatal(err)
	}
	if stat.Exit != ExitMaxIter || st.rowsStale || st.fr.changed == 0 {
		b.Fatalf("phase 0 ended (%v) before its sixth iteration did", stat.Exit)
	}
	return st
}

// BenchmarkSweepSettle is a mid-phase sweep with the settle test on, offered
// every vertex; it reports how many of them the test decides without a row
// scan.
func BenchmarkSweepSettle(b *testing.B) {
	st := midPhase(b)
	settled := 0
	for lv := int64(0); lv < st.dg.LocalN; lv++ {
		if st.settled(lv) {
			settled++
		}
	}
	sweep := func() {
		st.fr.cur.Fill()
		st.fr.scanDense = st.fr.cur.Dense()
		st.sweep(7)
	}
	sweep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.ReportMetric(float64(settled), "settled/op")
	b.ReportMetric(float64(st.dg.LocalN), "vertices/op")
}

// benchRuleD times rule (d) walked in direction w from the mid-phase state,
// next restored to the iteration's marks before every call, off the clock.
func benchRuleD(b *testing.B, w walk) {
	st := midPhase(b)
	base := st.fr.next.AppendAscending(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st.fr.next.Clear()
		for _, lv := range base {
			st.fr.next.Mark(lv)
		}
		b.StartTimer()
		st.markChanged(w)
	}
	b.ReportMetric(float64(len(base)), "marked/op")
	b.ReportMetric(float64(st.dg.LocalN), "vertices/op")
}

// BenchmarkRuleDPush walks from the changed communities' members,
// BenchmarkRuleDPull from the vertices rules a–c left unmarked; both mark the
// same set (TestFrontierPullMarksWhatPushMarks).
func BenchmarkRuleDPush(b *testing.B) { benchRuleD(b, walkPush) }

func BenchmarkRuleDPull(b *testing.B) { benchRuleD(b, walkPull) }

// benchModularityStep times step (iv) on a single rank, after prepare has
// said which row subtotals are out of date.
func benchModularityStep(b *testing.B, prepare func(st *phaseState)) {
	benchKernel(b, false, func(kb *KernelBench) int {
		prepare(kb.st)
		if _, _, err := kb.st.modularityAndMoves(0); err != nil {
			b.Fatal(err)
		}
		return 0
	})
}

// BenchmarkModularityAllRows: every row recomputed — what a full scan, a
// phase's first iteration, and every iteration before the row cache pay: O(m).
func BenchmarkModularityAllRows(b *testing.B) {
	benchModularityStep(b, func(st *phaseState) { st.rowsStale = true })
}

// BenchmarkModularityDirty1Pct: one row in a hundred is marked in the next
// frontier, as on a converging phase: O(n) for the sum plus the dirty rows'
// arcs.
func BenchmarkModularityDirty1Pct(b *testing.B) {
	benchModularityStep(b, func(st *phaseState) {
		st.fr.next.Clear()
		for lv := int64(0); lv < st.dg.LocalN; lv += 100 {
			st.fr.next.Mark(lv)
		}
	})
}

// BenchmarkCoarseArcsSlots is the shipped Step-5 aggregator, grouped by source
// community over the worker's slot-addressed accumulator; BenchmarkCoarseArcsMap
// the reference, a Go map keyed by the pair of new IDs.
func BenchmarkCoarseArcsSlots(b *testing.B) {
	benchKernel(b, false, func(kb *KernelBench) int { return kb.CoarseArcs() })
}

func BenchmarkCoarseArcsMap(b *testing.B) {
	benchKernel(b, true, func(kb *KernelBench) int { return kb.CoarseArcs() })
}
