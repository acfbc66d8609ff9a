package experiments

import (
	"fmt"
	"time"

	"distlouvain/internal/gen"
	"distlouvain/internal/graph"
	"distlouvain/internal/shared"
)

// Table1 reproduces the paper's Table I: the adaptive early-termination α
// sweep on the shared-memory multithreaded implementation, over a
// small-world (CNR-like) and a banded (Channel-like) input. Columns per
// input: modularity, wall time, total iterations, and ΔQ evaluations (the
// vertices the sweeps found active) — the work ET exists to save.
//
// Expected shape (paper): as α rises 0→1 iterations and time fall sharply —
// mildly on the small-world input (paper: 5.42s→2.25s, ~2.4x) and
// dramatically on the banded input (paper: 100.82s→1.73s, ~58x) — while
// modularity stays flat to the second decimal. Here the evaluations fall with
// α on both inputs; iterations and time do not (see the table's last note).
func Table1(s Scale, threads int) *Table {
	cnr := CNRLike(s)
	channel := ChannelLike(s)
	gCNR := gen.Build(cnr.N, cnr.Edges)
	gChan := gen.Build(channel.N, channel.Edges)

	t := &Table{
		ID:     "Table I",
		Title:  "Early-termination α sweep (shared-memory implementation)",
		Header: []string{"alpha", "CNR Q", "CNR time", "CNR iters", "CNR evals", "Channel Q", "Channel time", "Channel iters", "Channel evals"},
	}
	alphas := []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0}
	type row struct {
		q     float64
		dur   time.Duration
		iters int
		evals int64
	}
	runOne := func(g *graph.CSR, alpha float64) row {
		start := time.Now()
		res := shared.Run(g, shared.Options{Threads: threads, Alpha: alpha, Seed: 42})
		r := row{q: res.Modularity, dur: time.Since(start), iters: res.TotalIterations}
		for _, ph := range res.Phases {
			r.evals += ph.Touched
		}
		return r
	}
	var base0, base1 row
	var top0, top1 row
	for _, a := range alphas {
		r0 := runOne(gCNR, a)
		r1 := runOne(gChan, a)
		if a == 0 {
			base0, base1 = r0, r1
		}
		if a == 1 {
			top0, top1 = r0, r1
		}
		t.AddRow(
			fmt.Sprintf("%.1f", a),
			fmt.Sprintf("%.5f", r0.q), fmtDur(r0.dur), fmt.Sprintf("%d", r0.iters), fmt.Sprintf("%d", r0.evals),
			fmt.Sprintf("%.5f", r1.q), fmtDur(r1.dur), fmt.Sprintf("%d", r1.iters), fmt.Sprintf("%d", r1.evals),
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("inputs: %s as CNR, %s as Channel (scaled-down analogues)", cnr.Name, channel.Name),
		fmt.Sprintf("measured speedup α=0→1: CNR %.2fx (paper 2.41x), Channel %.2fx (paper 58.27x)",
			safeRatio(base0.dur, top0.dur), safeRatio(base1.dur, top1.dur)),
		fmt.Sprintf("measured ΔQ α=0→1: CNR %+.5f (paper -0.00021), Channel %+.5f (paper -0.00055)",
			top0.q-base0.q, top1.q-base1.q),
		"paper ran 8 Xeon cores on 3.2M/42.7M-edge inputs; this run uses synthetic analogues on one host",
		fmt.Sprintf("measured evaluations α=0→1: CNR %d→%d, Channel %d→%d", base0.evals, top0.evals, base1.evals, top1.evals),
		"paper's shape: the banded input gains far more from ET than the small-world input. "+
			"That long banded convergence no longer occurs here: until ΔQ ties were hashed (DESIGN §8) "+
			"the Channel analogue's baseline took 3305 iterations (1.7 s) against 1690 at α=1 — a label chase "+
			"caused by breaking ties towards the smallest ID on a naturally numbered mesh, and the Q=0.871 rows "+
			"at α ≤ 0.6 were vertices frozen in mid-chase — and now takes 29. Both analogues converge in a few "+
			"dozen baseline iterations (paper: 63 on CNR), so ET saves evaluations, not iterations or time",
		"what moved when phases began to damp their returns and a refused vertex to keep P = 1 (DESIGN §8 \"returns\"; "+
			"before: α=1 CNR 0.85306 / 41 iters / 17034 evals, Channel 0.95738 / 50 / 31227; α=0 CNR 28 iters / 44940 evals, "+
			"Channel 29 / 63054): the high-α rows gained modularity (CNR ΔQ α=0→1 −0.0056 → −0.0016) and lost iterations, because "+
			"a vertex the minimum-label or the return rule holds back no longer decays to inactive as if it were stable; the α=0 "+
			"rows run a few more, nearly idle, iterations per phase, which evals — vertices × iterations, shared has no frontier — counts in full",
	)
	return t
}

func safeRatio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}
