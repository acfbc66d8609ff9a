package experiments

import (
	"fmt"
	"time"

	"distlouvain/internal/core"
	"distlouvain/internal/gen"
	"distlouvain/internal/graph"
)

// Table1 reproduces the paper's Table I: the adaptive early-termination α
// sweep on the shared-memory multithreaded implementation (core at one rank
// with a worker team of threads), over a small-world (CNR-like) and a banded
// (Channel-like) input. Columns per input: modularity, wall time, total
// iterations, and ΔQ evaluations (the vertices the sweeps found active) — the
// work ET exists to save.
//
// Expected shape (paper): as α rises 0→1 iterations and time fall sharply —
// mildly on the small-world input (paper: 5.42s→2.25s, ~2.4x) and
// dramatically on the banded input (paper: 100.82s→1.73s, ~58x) — while
// modularity stays flat to the second decimal. Here the evaluations fall with
// α on both inputs; iterations and time do not (see the table's notes).
// TestTable1Shape holds the evaluations and ΔQ to that shape.
func Table1(s Scale, threads int) (*Table, error) {
	cnr := CNRLike(s)
	channel := ChannelLike(s)
	// Each input runs as its CSR's edge list, duplicate edges merged.
	eCNR := gen.Build(cnr.N, cnr.Edges).UndirectedEdges()
	eChan := gen.Build(channel.N, channel.Edges).UndirectedEdges()

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
	runOne := func(n int64, edges []graph.RawEdge, alpha float64) (row, error) {
		start := time.Now()
		res, err := core.RunOnEdges(1, n, edges, core.Config{Threads: threads, Alpha: alpha, Seed: 42})
		if err != nil {
			return row{}, err
		}
		r := row{q: res.Modularity, dur: time.Since(start), iters: res.TotalIterations}
		for _, ph := range res.Phases {
			for _, c := range ph.TouchedTrajectory {
				r.evals += c
			}
		}
		return r, nil
	}
	var base0, base1 row
	var top0, top1 row
	for _, a := range alphas {
		r0, err := runOne(cnr.N, eCNR, a)
		if err != nil {
			return nil, err
		}
		r1, err := runOne(channel.N, eChan, a)
		if err != nil {
			return nil, err
		}
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
		"paper's shape: the banded input gains far more from ET than the small-world input. Neither analogue shows it: "+
			"both converge in a few dozen baseline iterations (paper: 63 on CNR), so ET saves evaluations, not iterations "+
			"or time. The Channel analogue's long baseline this table once reported (3305 iterations against 1690 at α=1) "+
			"was a label chase caused by breaking ΔQ ties towards the smallest ID on a naturally numbered mesh (DESIGN §8)",
		"the shared-memory implementation is the distributed engine at one rank with a worker team of -threads. Its "+
			"sweep offers an iteration only the frontier — the vertices whose neighbourhood changed — so the α=0 evals "+
			"are what a baseline iteration really evaluates (CNR 60560, Channel 64339 when a separate shared-memory sweep "+
			"evaluated every vertex every iteration, at the same Q and iterations). The 0<α<1 rows moved with that "+
			"change only through the engine's per-phase coin-flip seed",
	)
	return t, nil
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
