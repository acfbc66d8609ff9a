package core

import (
	"fmt"
	"math/big"
	"slices"
	"sync"
	"testing"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/frontier"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
)

// The frontier's own tests. That the frontier under every representation
// retraces the full scan (oracle.fullScan) bit for bit, at every rank and
// thread count and across restarts, is property 2 of TestRunProperties; these
// pin what a trajectory cannot show: the counters, the sweep it saves, rule
// (d)'s cases and walks, and the invariant that every vertex it leaves out
// would stay.

// frontierGraphs are the inputs of TestFrontierPullMarksWhatPushMarks: an
// Erdős–Rényi graph, a banded mesh (the workload class the frontier targets),
// a float-weighted graph, which Build scales to integers, the LFR of
// lightVertexWeights, whose light vertices have weight 0, and sizeOnlyGadget,
// on which rule (d) marks one way and, every copy twice, not at all
// (TestFrontierDirectionalRuleHasCases counts them).
func frontierGraphs() []struct {
	name  string
	n     int64
	edges []graph.RawEdge
} {
	ern, erEdges := gen.ErdosRenyi(300, 1500, 5)
	meshN, meshEdges := gen.Grid2D(18, 18, false)
	fn, fEdges := gen.ErdosRenyi(250, 1200, 17)
	ln, lEdges := lightLFR()
	gn, gEdges := sizeOnlyGadget()
	return []struct {
		name  string
		n     int64
		edges []graph.RawEdge
	}{
		{"er", ern, erEdges},
		{"mesh", meshN, meshEdges},
		{"er-float", fn, floatWeights(fEdges)},
		{"lfr-light", ln, lEdges},
		{"gadget", gn, gEdges},
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
// graph under the full scan. How many fewer is recorded, not floored: the run
// is 28 iterations, most of them a phase's first few, and the share is 82% (22 426 of
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
// edges weigh 10⁻¹⁷ of the others', which the scale rule rounds to 0. A light
// vertex has weight 0: it is offered no positive gain and never moves, while
// its arcs still run through every kernel and the frontier.
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

// sizeOnlyGadget is 16 copies of one 14-vertex graph, weights 1 and 2, on
// which integer weights cancel: in phase 0, vertex 1 (weighted degree 8)
// leaves a 3-member community just as vertices 9 and 10 (6 and 2) join it, and
// one iteration later the same three swap with a second community, so each
// community's A keeps its value while its size goes 3 → 4. That is two
// size-only changes a copy (not with one copy alone, whose m2 is too small
// for these moves), 32 in all.
func sizeOnlyGadget() (int64, []graph.RawEdge) {
	const copies, size = 16, 14
	one := [][3]int64{
		{0, 1, 2}, {0, 2, 1}, {0, 3, 2}, {0, 4, 1}, {0, 5, 2}, {0, 7, 1}, {0, 9, 1}, {0, 10, 1},
		{0, 11, 1}, {1, 4, 1}, {1, 6, 1}, {1, 9, 1}, {1, 10, 1}, {1, 11, 1}, {1, 13, 1}, {2, 3, 1},
		{2, 4, 1}, {2, 12, 1}, {2, 13, 1}, {3, 4, 1}, {3, 13, 2}, {4, 6, 1}, {4, 9, 1}, {4, 12, 1},
		{5, 12, 1}, {6, 7, 1}, {6, 9, 1}, {7, 8, 2}, {7, 9, 1}, {7, 11, 2}, {7, 12, 1}, {9, 12, 1},
	}
	var edges []graph.RawEdge
	for c := int64(0); c < copies; c++ {
		for _, e := range one {
			edges = append(edges, graph.RawEdge{U: c*size + e[0], V: c*size + e[1], W: float64(e[2])})
		}
	}
	return copies * size, edges
}

// TestFrontierDirectionalRuleHasCases: rule (d) marks by the sign of ΔA_c and
// ignores a size that changes away from {0, 1};
// TestFrontierUnmarkedVerticesWouldStay holds it to its invariant on
// sizeOnlyGadget. (An Erdős–Rényi graph does not
// serve: its phases end after two iterations, every community still at size
// ≤ 1, where the rule marks both ways as before.) Every weight is an integer,
// so A stays put while the size moves only when the weights moving in and out
// cancel exactly: 0–10 times in phase 0 of LFR 1000–3000, Erdős–Rényi,
// Watts–Strogatz and grid inputs, which is why the gadget is built for it.
// This test drives phase 0 of the gadget by hand and counts, on the owned
// tables, the changes the rule marks one way only and the ones it skips (size
// moved, A did not), so that check cannot quietly stop covering what it is
// there for.
func TestFrontierDirectionalRuleHasCases(t *testing.T) {
	n, edges := sizeOnlyGadget()
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
// right one. It holds the settle test to the same standard: every vertex the
// sweep would settle without its row scan is evaluated too, and must stay
// without being refused.
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
	n, edges = sizeOnlyGadget()
	inputs = append(inputs, input{"size-only", n, edges})
	n, edges, _, err := gen.LFR(gen.DefaultLFR(1000, 0.3, 23))
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"lfr", n, edges}, input{"lfr-light", n, lightVertexWeights(edges)})
	for _, in := range inputs {
		for _, v := range []Config{Baseline(), ETC(0.25)} {
			for _, ranks := range []int{1, 2, 3} {
				type counts struct{ checked, settled int }
				out, err := mpi.RunCollect(ranks, func(c *mpi.Comm) (counts, error) {
					var k counts
					lo, hi := gio.SegmentRange(int64(len(in.edges)), c.Rank(), ranks)
					dg, err := dgraph.Build(c, in.n, in.edges[lo:hi], nil)
					if err != nil {
						return k, err
					}
					for phase := 0; phase < 4; phase++ {
						cfg := v
						cfg.Threads = 1
						cfg.fill()
						st, err := newPhaseState(dg, &cfg, phase, &StepTimes{})
						if err != nil {
							return k, err
						}
						var acc rowAcc
						var bad error
						sweepBody := st.sweepBody
						st.sweepBody = func(w, lo, hi int) {
							acc.fit(len(st.refs))
							for lv := int64(0); lv < st.dg.LocalN && bad == nil; lv++ {
								if st.inactive[lv] {
									continue
								}
								out := !st.fr.cur.Has(lv)
								settled := !st.rowsStale && st.settled(lv)
								if !out && !settled {
									continue
								}
								if out {
									k.checked++
								}
								if settled {
									k.settled++
								}
								if mv, ok, refused := st.evaluateVertex(lv, &acc); ok || refused {
									bad = fmt.Errorf("phase %d iteration %d: vertex %d (outside the frontier: %v, settled: %v) would move to community %d (refused: %v)",
										phase, st.sweepIter, st.dg.Global(lv), out, settled, st.gidOf(mv.to), refused)
								}
							}
							sweepBody(w, lo, hi)
						}
						if _, err := st.iterate(cfg.Tau); err != nil {
							return k, err
						}
						if bad != nil {
							return k, bad
						}
						ndg, _, err := st.rebuild()
						if err != nil {
							return k, err
						}
						if ndg.GlobalN == dg.GlobalN {
							break
						}
						dg = ndg
					}
					return k, nil
				})
				if err != nil {
					t.Fatalf("%s %s ranks=%d: %v", in.name, v.VariantName(), ranks, err)
				}
				if !slices.ContainsFunc(out, func(k counts) bool { return k.checked > 0 }) {
					t.Fatalf("%s %s ranks=%d: the frontier never left a vertex out", in.name, v.VariantName(), ranks)
				}
				if !slices.ContainsFunc(out, func(k counts) bool { return k.settled > 0 }) {
					t.Fatalf("%s %s ranks=%d: the settle test never held", in.name, v.VariantName(), ranks)
				}
			}
		}
	}
}

// TestFrontierPullMarksWhatPushMarks: rule (d) by pull marks exactly the
// vertices push marks. At every iteration of runs over frontierGraphs,
// frontierVariants and 1, 2 and 4 ranks, the probe applies markChanged pinned
// to push, then pinned to pull, each to its own copy of next as the previous
// iteration left it, and the by-cost choice to a third; the three sets must be
// equal, and rule (d) must have marked something in some iteration. By cost,
// push must have run to its end somewhere and handed over to pull somewhere.
func TestFrontierPullMarksWhatPushMarks(t *testing.T) {
	var mu sync.Mutex
	var pushed, handed int
	for _, g := range frontierGraphs() {
		for _, v := range frontierVariants() {
			for _, ranks := range []int{1, 2, 4} {
				marked := 0
				cfg := v.cfg
				cfg.oracle.afterFetch = func(st *phaseState) error {
					fr := st.fr
					if fr.changed == 0 {
						return nil
					}
					next := fr.next
					base := next.AppendAscending(nil)
					var sets [3][]int64
					for i, w := range []walk{walkPush, walkPull, walkByCost} {
						fr.next = frontier.New(st.dg.LocalN, frontier.RepDense, 0)
						for _, lv := range base {
							fr.next.Mark(lv)
						}
						st.markChanged(w)
						sets[i] = fr.next.AppendAscending(nil)
					}
					fr.next = next
					if !slices.Equal(sets[0], sets[1]) || !slices.Equal(sets[0], sets[2]) {
						return fmt.Errorf("rule (d) marks %d vertices by push, %d by pull, %d by cost", len(sets[0]), len(sets[1]), len(sets[2]))
					}
					push, pull := int64(0), int64(0)
					index := st.dg.Index
					for lv, c := range st.comm {
						if !next.Has(int64(lv)) {
							pull += index[lv+1] - index[lv]
						}
						if fr.stamp[c] == fr.epoch && fr.dir[c]&dirNeighbours != 0 {
							push += index[lv+1] - index[lv]
						}
					}
					for g, c := range st.ghostComm {
						if fr.stamp[c] == fr.epoch && fr.dir[c]&dirNeighbours != 0 {
							push += fr.revOff[g+1] - fr.revOff[g]
						}
					}
					mu.Lock()
					marked += len(sets[0]) - len(base)
					if push > pull {
						handed++
					} else if push > 0 {
						pushed++
					}
					mu.Unlock()
					return nil
				}
				if _, err := RunOnEdges(ranks, g.n, g.edges, cfg); err != nil {
					t.Fatalf("%s/%s ranks=%d: %v", g.name, v.name, ranks, err)
				}
				if marked == 0 {
					t.Fatalf("%s/%s ranks=%d: rule (d) never marked a vertex", g.name, v.name, ranks)
				}
			}
		}
	}
	if pushed == 0 || handed == 0 {
		t.Fatalf("by cost, push ran to its end %d times and handed over to pull %d times", pushed, handed)
	}
}

// TestSettleMarginHoldsAtZeroBound: a float-weighted vertex whose bound is 0
// in exact arithmetic, which rounding puts below 0, is not settled: the margin
// holds it. The vertex has a self loop of 0.10000000000000014, an arc of 3.7
// into its own community, whose other members' degrees sum to 32, and arcs of
// 0.2 and 1 into another community; 2m is 64. Its exact bound is
// 64·(0.2 + 1 − 3.7) + 5·32 = 0.
func TestSettleMarginHoldsAtZeroBound(t *testing.T) {
	self, a, b1, b2, m2, others := 0.10000000000000014, 3.7, 0.2, 1.0, 64.0, 32.0
	rat := func(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }
	total := new(big.Rat).Add(rat(self), rat(a))
	total.Add(total, rat(b1)).Add(total, rat(b2))
	exact := new(big.Rat).Sub(total, rat(self))
	exact.Sub(exact, new(big.Rat).Mul(rat(2), rat(a)))
	exact.Mul(exact, rat(m2)).Add(exact, new(big.Rat).Mul(total, rat(others)))
	if exact.Sign() != 0 {
		t.Fatalf("the gadget's exact bound is %v, want 0", exact.FloatString(20))
	}
	k := self + a + b1 + b2 // in row order, as Build sums the degree
	st := &phaseState{
		dg:       &dgraph.DistGraph{M2: m2, K: []float64{k}, SelfLoop: []float64{self}, Index: []int64{0, 4}},
		rowIntra: []float64{self + a}, // the self loop and the arc into its own community, as recomputeRow sums them
		cA:       []float64{k + others},
		comm:     []int32{0},
	}
	bound, margin := st.settleBound(0)
	if bound >= 0 {
		t.Fatalf("the gadget's computed bound is %g: rounding no longer takes it below 0", bound)
	}
	if st.settled(0) {
		t.Fatalf("settled at bound %g with margin %g: the margin does not cover rounding", bound, margin)
	}
	// The same vertex a hair further from its community settles: the margin
	// is a rounding allowance, not a cut-off.
	st.cA[0] = k + others - 1e-9
	if !st.settled(0) {
		bound, margin = st.settleBound(0)
		t.Fatalf("not settled at bound %g with margin %g", bound, margin)
	}
}
