package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
)

// The properties of the return rule (evaluateVertex, DESIGN §8 "returns"). Up
// to ea93e17 a synchronous sweep let two boundary vertices, each acting on the
// other's stale label, trade places for ever: phase 0 of an LFR graph ended
// with 2–10 % of its vertices still moving, 99 % of them back to where they had
// been one iteration earlier, and was coarsened in that state. The first two
// tests fail on that tree; the third keeps the rule off the workload an
// always-on rule slows down. The rule is held to what every other part of the
// sweep is held to — a result independent of how the graph is split and of
// restarts — by TestRunProperties, whose corpus must contain damped phases.

// TestOscillationNoPlateau: phase 0 of LFR 4000 / 20000 at μ = 0.1, 0.3, 0.5
// ends with under 1 % of the vertices moving (ea93e17: 3.3 / 7.0 / 5.6 % and
// 2.1 / 4.4 / 10.4 %), is damped at some point, and from the second damped
// iteration on — in the first, one vertex of every swapping pair still goes
// back, which is the rule at work — no iteration that moves 1 % of the vertices
// or more has returns for half of its moves: what is left moving is converging,
// not flip-flopping. (Below 1 % a handful of vertices can still go round with
// period 3 — out, back towards the smaller label, refused — until τ ends the
// phase: LFR 20000 at μ = 0.5 ends on returns [… 0 6 7 0 6 7] of 14 moves.)
func TestOscillationNoPlateau(t *testing.T) {
	for _, n := range []int64{4000, 20000} {
		for _, mu := range []float64{0.1, 0.3, 0.5} {
			vn, edges, _, err := gen.LFR(gen.DefaultLFR(n, mu, 1))
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunOnEdges(2, vn, edges, Baseline())
			if err != nil {
				t.Fatal(err)
			}
			ph := res.Phases[0]
			if last := ph.MovesTrajectory[len(ph.MovesTrajectory)-1]; 100*last >= vn {
				t.Errorf("LFR %d μ=%.1f: phase 0 ends with %d of %d vertices moving: %v", n, mu, last, vn, ph.MovesTrajectory)
			}
			if ph.DampedFrom == 0 {
				t.Errorf("LFR %d μ=%.1f: phase 0 was never damped; returns %v of moves %v", n, mu, ph.ReturnsTrajectory, ph.MovesTrajectory)
				continue
			}
			for i := ph.DampedFrom; i < ph.Iterations; i++ {
				if moves, returns := ph.MovesTrajectory[i], ph.ReturnsTrajectory[i]; 100*moves >= vn && 2*returns >= moves {
					t.Errorf("LFR %d μ=%.1f: iteration %d, damped since %d, still has %d returns in %d moves", n, mu, i+1, ph.DampedFrom, returns, moves)
				}
			}
		}
	}
}

// swapGadgets is Lu et al.'s swap for communities of more than one vertex, as a
// graph: copies of two 5-cliques (edge weight 4) joined by a pair of boundary
// vertices u, v — each tied to every clique vertex (weight 1, a hair more to
// "its own" clique's first vertex) and to the other (weight ½) — next to a
// banded mesh whose own convergence keeps phase 0 going. From singletons, u and
// v settle together at once; it is one of the cliques that comes apart: it
// splits 3 | 2, every vertex of either part sees the other part (plus the stale
// copy of its own) as the better community, and the two parts trade labels en
// bloc, every iteration, at constant Q. cliques lists each copy's two cliques.
func swapGadgets(copies int) (n int64, edges []graph.RawEdge, cliques [][]int64) {
	const k = 5
	n, edges = gen.BandedMesh(600, 4)
	for g := 0; g < copies; g++ {
		p, q := make([]int64, k), make([]int64, k)
		for i := range p {
			p[i], q[i] = n+int64(i), n+int64(k+i)
		}
		u, v := n+2*k, n+2*k+1
		n += 2*k + 2
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				edges = append(edges, graph.RawEdge{U: p[i], V: p[j], W: 4}, graph.RawEdge{U: q[i], V: q[j], W: 4})
			}
			own := 1.0
			if i == 0 {
				own = 1.001
			}
			edges = append(edges,
				graph.RawEdge{U: u, V: p[i], W: own}, graph.RawEdge{U: u, V: q[i], W: 1},
				graph.RawEdge{U: v, V: q[i], W: own}, graph.RawEdge{U: v, V: p[i], W: 1})
		}
		edges = append(edges, graph.RawEdge{U: u, V: v, W: 0.5})
		cliques = append(cliques, p, q)
	}
	return n, edges, cliques
}

// TestOscillationSwapGadget drives phase 0 of swapGadgets by hand and counts,
// after every iteration, the cliques that are not in one community. Before the
// phase is damped some are split and trading places (the guard: a tie rule that
// stops producing the swap must not leave this test passing on nothing); two
// iterations into damping every clique is whole, and stays whole to the end of
// the phase. On ea93e17 the swap goes on until the mesh's last gains fall under
// τ and the phase ends with the cliques split (30 of 60, Q = 0.697 against
// 0.821).
func TestOscillationSwapGadget(t *testing.T) {
	n, edges, cliques := swapGadgets(30)
	for _, ranks := range []int{1, 2, 3} {
		var split []int // rank 0's: cliques not whole after each iteration
		stats, err := mpi.RunCollect(ranks, func(c *mpi.Comm) (PhaseStat, error) {
			lo, hi := gio.SegmentRange(int64(len(edges)), c.Rank(), ranks)
			dg, err := dgraph.Build(c, n, edges[lo:hi], nil)
			if err != nil {
				return PhaseStat{}, err
			}
			cfg := Baseline()
			cfg.fill()
			st, err := newPhaseState(dg, &cfg, 0, &StepTimes{})
			if err != nil {
				return PhaseStat{}, err
			}
			var hookErr error
			cfg.Progress = func(ev ProgressEvent) {
				if ev.Kind != ProgressIteration || hookErr != nil {
					return
				}
				var labels []int64
				if labels, hookErr = st.gatherLabels(); hookErr != nil || c.Rank() != 0 {
					return
				}
				apart := 0
				for _, cl := range cliques {
					if slices.ContainsFunc(cl, func(v int64) bool { return labels[v] != labels[cl[0]] }) {
						apart++
					}
				}
				split = append(split, apart)
			}
			stat, err := st.iterate(cfg.Tau)
			return stat, errors.Join(err, hookErr)
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		stat := stats[0]
		d := stat.DampedFrom
		if d < 2 || d+1 > stat.Iterations {
			t.Fatalf("ranks=%d: damped from iteration %d of %d; moves %v returns %v", ranks, d, stat.Iterations, stat.MovesTrajectory, stat.ReturnsTrajectory)
		}
		if split[d-2] == 0 {
			t.Fatalf("ranks=%d: no clique is split before damping starts (iteration %d): %v — the graph no longer produces the swap", ranks, d, split)
		}
		for i := d; i < len(split); i++ { // from the second damped iteration on
			if split[i] != 0 {
				t.Errorf("ranks=%d: %d cliques still split after iteration %d, damped since %d: %v", ranks, split[i], i+1, d, split)
				break
			}
		}
	}
}

// TestReturnRuleStaysOffRMAT: R-MAT 17 (the rmat-coarsen workload's input)
// ends phases 0 and 1 after 2 and 4 iterations because the swaps make Q drop
// there, before returns reach half of the moves; a rule that is always on runs
// phase 0 for 18 iterations of 55–75 k evaluations (Q 0.092 → 0.112, wall
// +30–58 %: DESIGN §8). The iteration counts of those two phases are ea93e17's,
// on seeds 1–3, so arming the rule earlier by accident fails here rather than
// in the benchmark. (Not named Oscillation: three scale-17 graphs are too slow
// for the race job's pattern.)
func TestReturnRuleStaysOffRMAT(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		n, edges, err := gen.RMAT(17, 8, 0.57, 0.19, 0.19, 0.05, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Baseline()
		cfg.MaxPhases = 2
		res, err := RunOnEdges(2, n, edges, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for p, want := range []int{2, 4} {
			if ph := res.Phases[p]; ph.Iterations != want || ph.DampedFrom != 0 {
				t.Errorf("seed %d phase %d: %d iterations, damped from %d; want %d undamped (moves %v, returns %v)",
					seed, p, ph.Iterations, ph.DampedFrom, want, ph.MovesTrajectory, ph.ReturnsTrajectory)
			}
		}
	}
}

// phasesLoseNothing is the phase-over-phase invariant of core.Run: every kept
// phase gains on the kept one before, a discarded phase — one that ended below
// — is followed by nothing but another discarded one (the forced final pass of
// a threshold cycle, which starts from the same kept state), and the final Q is
// the last kept phase's, so no listed phase ended above it. It returns how many
// phases were discarded.
func phasesLoseNothing(t *testing.T, label string, res *Result) (discarded int) {
	t.Helper()
	kept := math.Inf(-1)
	for i, ph := range res.Phases {
		switch {
		case ph.Modularity < kept:
			discarded++
		case discarded > 0:
			t.Errorf("%s: phase %d is applied after a discarded one: %v", label, i, res.Phases)
		default:
			kept = ph.Modularity
		}
	}
	if math.Abs(res.Modularity-kept) > 1e-9 {
		t.Errorf("%s: final Q %.12f, the last kept phase ended at %.12f", label, res.Modularity, kept)
	}
	return discarded
}

// TestDiscardedLastPhaseLosesNothing: core.Run used to apply every phase it
// ran, and LFR 100k ended at 0.668596 after its third phase had reached
// 0.670179. A phase that ends below the one before is now discarded — its
// labels never reach the result — at every rank count, under a threshold cycle
// too (where the forced final pass then starts from the kept state), and a
// resume from the last committed checkpoint, which runs that phase again,
// discards it again. The LFR and R-MAT inputs are ones whose last phase loses
// (asserted); no banded mesh of 96 tried has one, so the band rows hold the
// property with nothing to discard.
func TestDiscardedLastPhaseLosesNothing(t *testing.T) {
	type input struct {
		name  string
		n     int64
		edges []graph.RawEdge
		loses bool
	}
	var inputs []input
	n, edges, _, err := gen.LFR(gen.DefaultLFR(4000, 0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"lfr", n, edges, true})
	n, edges, err = gen.RMAT(12, 8, 0.57, 0.19, 0.19, 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"rmat", n, edges, true})
	n, edges = gen.BandedMesh(2000, 6)
	inputs = append(inputs, input{"band", n, edges, false})
	for _, in := range inputs {
		var want *Result
		for _, ranks := range []int{1, 2, 4} {
			label := fmt.Sprintf("%s ranks=%d", in.name, ranks)
			dir := t.TempDir()
			cfg := Baseline()
			cfg.CheckpointDir = dir
			got, err := RunOnEdges(ranks, in.n, in.edges, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if discarded := phasesLoseNothing(t, label, got); in.loses && discarded != 1 {
				t.Fatalf("%s: the last phase no longer loses modularity (%v); pick another graph", label, got.Phases)
			}
			if want == nil {
				want = got
			} else {
				sameTrajectory(t, label, got, want)
			}
			sameOutcome(t, label+" resumed from the last checkpoint", resumeInproc(t, ranks, dir, Baseline()), got)
		}
		tc, err := RunOnEdges(2, in.n, in.edges, ThresholdCycling())
		if err != nil {
			t.Fatal(err)
		}
		phasesLoseNothing(t, in.name+" tc", tc)
	}
}
