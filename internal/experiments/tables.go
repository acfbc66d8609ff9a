package experiments

import (
	"fmt"
	"sort"
	"time"

	"distlouvain/internal/core"
	"distlouvain/internal/gen"
	"distlouvain/internal/graph"
	"distlouvain/internal/seq"
	"distlouvain/internal/shared"
)

// distRun runs one distributed configuration over in-process ranks and
// returns rank 0's result plus wall time.
func distRun(p int, n int64, edges []graph.RawEdge, cfg core.Config) (*core.Result, time.Duration, error) {
	start := time.Now()
	res, err := core.RunOnEdges(p, n, edges, cfg)
	return res, time.Since(start), err
}

// distRunMedian repeats distRun reps times and returns the run with the
// median wall time, damping scheduler noise in the sub-second timing
// comparisons (Tables IV and VI).
func distRunMedian(reps, p int, n int64, edges []graph.RawEdge, cfg core.Config) (*core.Result, time.Duration, error) {
	type sample struct {
		res *core.Result
		dur time.Duration
	}
	samples := make([]sample, 0, reps)
	for i := 0; i < reps; i++ {
		res, dur, err := distRun(p, n, edges, cfg)
		if err != nil {
			return nil, 0, err
		}
		samples = append(samples, sample{res, dur})
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].dur < samples[j].dur })
	mid := samples[len(samples)/2]
	return mid.res, mid.dur, nil
}

// Table2 reproduces Table II: the evaluation graph set with vertex/edge
// counts and the serial (1-thread) modularity, in ascending edge order.
//
// Expected shape (paper): banded/mesh graphs score very high (0.94–0.99),
// webs high (0.67–0.99), social networks moderate (0.47–0.62).
func Table2(s Scale) (*Table, error) {
	t := &Table{
		ID:     "Table II",
		Title:  "Test graphs (synthetic analogues) with serial modularity",
		Header: []string{"graph", "stands for", "character", "|V|", "|E|", "Modularity"},
	}
	for _, w := range TestGraphs(s) {
		g := gen.Build(w.N, w.Edges)
		st := graph.ComputeStats(g)
		res := seq.Run(g, seq.Options{})
		t.AddRow(w.Name, w.PaperGraph, w.Character,
			fmt.Sprintf("%d", st.Vertices), fmt.Sprintf("%d", st.UndirEdges),
			fmt.Sprintf("%.3f", res.Modularity))
	}
	t.Notes = append(t.Notes,
		"paper graphs span 42.7M–3.3B edges; analogues are scaled to one host",
		"expected shape: banded/mesh ≥ small-world/web > power-law social (holds per the Modularity column)",
	)
	return t, nil
}

// Table3 reproduces Table III: distributed vs shared memory on one node as
// concurrency grows, on the friendster analogue. Both columns run the same
// engine: concurrency c is c ranks × 1 thread against 1 rank × c threads
// (shared.Run), so the gap is the cost of ranks — ghosts, message rounds,
// distributed rebuilds — over threads sharing one rank's tables.
//
// Expected shape (paper): the distributed version pays a constant-factor
// overhead versus pure shared memory at equal concurrency (paper: ~2.3x at
// 32 cores) but scales further with rank count.
func Table3(s Scale) (*Table, error) {
	w := FriendsterLike(s)
	g := gen.Build(w.N, w.Edges)
	t := &Table{
		ID:     "Table III",
		Title:  "Distributed vs shared memory runtime on one host (friendster analogue)",
		Header: []string{"concurrency", "distributed (s)", "distributed Q", "shared (s)", "shared Q"},
	}
	for _, c := range []int{1, 2, 4, 8} {
		cfg := core.Baseline()
		dres, ddur, err := distRun(c, w.N, w.Edges, cfg)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		sres, err := shared.Run(g, shared.Options{Threads: c})
		if err != nil {
			return nil, err
		}
		sdur := time.Since(start)
		t.AddRow(fmt.Sprintf("%d", c),
			fmt.Sprintf("%.3f", ddur.Seconds()), fmt.Sprintf("%.4f", dres.Modularity),
			fmt.Sprintf("%.3f", sdur.Seconds()), fmt.Sprintf("%.4f", sres.Modularity))
	}
	t.Notes = append(t.Notes,
		"paper: 4–64 threads of one Cori node, distributed ~2.3x slower than shared at full node; modularity difference under 1%",
		"both columns run one engine, c ranks × 1 thread against 1 rank × c threads, so Q agrees and the gap is what "+
			"ranks cost over threads: ghost exchanges, message rounds and distributed rebuilds",
		"on a host with fewer cores than c the concurrency columns measure overhead shape, not parallel speedup",
	)
	return t, nil
}

// Table4 reproduces Table IV: for each test graph, the variant yielding the
// best runtime over the Baseline and its speedup.
//
// Expected shape (paper): ET/ETC win on most graphs (speedups 1.8x–46x);
// Threshold Cycling wins on inputs that run few phases.
func Table4(s Scale, p int) (*Table, error) {
	t := &Table{
		ID:     "Table IV",
		Title:  fmt.Sprintf("Best variant vs Baseline (p=%d ranks)", p),
		Header: []string{"graph", "baseline (s)", "best (s)", "speedup", "version", "ΔQ vs baseline"},
	}
	variants := []core.Config{
		core.ThresholdCycling(),
		core.ET(0.25), core.ET(0.75),
		core.ETC(0.25), core.ETC(0.75),
	}
	for _, w := range TestGraphs(s) {
		base, bdur, err := distRunMedian(3, p, w.N, w.Edges, core.Baseline())
		if err != nil {
			return nil, err
		}
		bestDur := bdur
		bestName := "Baseline"
		bestQ := base.Modularity
		for _, cfg := range variants {
			res, dur, err := distRunMedian(3, p, w.N, w.Edges, cfg)
			if err != nil {
				return nil, err
			}
			if dur < bestDur {
				bestDur = dur
				bestName = cfg.VariantName()
				bestQ = res.Modularity
			}
		}
		t.AddRow(w.Name,
			fmt.Sprintf("%.3f", bdur.Seconds()), fmt.Sprintf("%.3f", bestDur.Seconds()),
			fmt.Sprintf("%.2fx", safeRatio(bdur, bestDur)), bestName,
			fmt.Sprintf("%+.4f", bestQ-base.Modularity))
	}
	t.Notes = append(t.Notes,
		"paper (16–128 procs): best speedups 1.8x–46.18x, ET/ETC best for 10 of 12 graphs, TC for 2",
	)
	return t, nil
}

// Table5 reproduces Table V: the SSCA#2 weak-scaling configurations with
// their modularities.
//
// Expected shape (paper): modularity ≈ 0.9999 at every size — the clique
// structure is recovered regardless of scale — and identical convergence
// behaviour across sizes.
func Table5(s Scale) (*Table, []WeakScalePoint, error) {
	t := &Table{
		ID:     "Table V",
		Title:  "SSCA#2 weak-scaling graphs (GTgraph model)",
		Header: []string{"name", "|V|", "|E|", "Modularity", "ranks", "phases", "iters", "time (s)"},
	}
	verticesPerRank := int64(4000) * s.factor()
	var points []WeakScalePoint
	for i, p := range []int{1, 2, 4, 8} {
		opt := gen.SSCA2ForScale(int64(p), verticesPerRank, 500+uint64(i))
		n, edges, _, err := gen.SSCA2(opt)
		if err != nil {
			return nil, nil, err
		}
		res, dur, err := distRun(p, n, edges, core.Baseline())
		if err != nil {
			return nil, nil, err
		}
		g := gen.Build(n, edges)
		st := graph.ComputeStats(g)
		t.AddRow(fmt.Sprintf("Graph#%d", i+1),
			fmt.Sprintf("%d", st.Vertices), fmt.Sprintf("%d", st.UndirEdges),
			fmt.Sprintf("%.6f", res.Modularity), fmt.Sprintf("%d", p),
			fmt.Sprintf("%d", len(res.Phases)), fmt.Sprintf("%d", res.TotalIterations),
			fmt.Sprintf("%.3f", dur.Seconds()))
		points = append(points, WeakScalePoint{Ranks: p, Vertices: st.Vertices, Edges: st.UndirEdges, Seconds: dur.Seconds(), Iterations: res.TotalIterations})
	}
	t.Notes = append(t.Notes,
		"paper: 5M–150M vertices on 1–512 processes, modularity 0.99998+ everywhere, identical convergence criteria",
		"work per rank is fixed; a multi-core host would show the paper's flat weak-scaling curve (Fig. 4)",
	)
	return t, points, nil
}

// WeakScalePoint is one Fig. 4 sample.
type WeakScalePoint struct {
	Ranks      int
	Vertices   int64
	Edges      int64
	Seconds    float64
	Iterations int
}

// Table6 reproduces Table VI: ET(0.25) alone vs ET(0.25)+Threshold Cycling
// on the friendster analogue across rank counts.
//
// Expected shape (paper): adding TC buys ~10–12% at every scale.
func Table6(s Scale) (*Table, error) {
	// Use the next scale up: Table VI compares end-to-end runtimes, which
	// need enough phases at the cycled thresholds for TC to matter (the
	// paper ran its largest input here).
	w := FriendsterLike(s + 1)
	t := &Table{
		ID:     "Table VI",
		Title:  "ET(0.25) vs ET(0.25)+Threshold Cycling (friendster analogue)",
		Header: []string{"ranks", "ET(0.25) (s)", "ET(0.25)+TC (s)", "gain", "ΔQ"},
	}
	for _, p := range []int{1, 2, 4, 8} {
		et, etd, err := distRunMedian(3, p, w.N, w.Edges, core.ET(0.25))
		if err != nil {
			return nil, err
		}
		tc, tcd, err := distRunMedian(3, p, w.N, w.Edges, core.ETWithTC(0.25))
		if err != nil {
			return nil, err
		}
		gain := (1 - tcd.Seconds()/etd.Seconds()) * 100
		t.AddRow(fmt.Sprintf("%d", p),
			fmt.Sprintf("%.3f", etd.Seconds()), fmt.Sprintf("%.3f", tcd.Seconds()),
			fmt.Sprintf("%+.0f%%", gain), fmt.Sprintf("%+.4f", tc.Modularity-et.Modularity))
	}
	t.Notes = append(t.Notes, "paper (256–4096 procs): TC adds 10–12% at every scale",
		"what moved when phases began to damp their returns (DESIGN §8 \"returns\"; before: +3 / −12 / −24 / −1 %): ET's phase 0 now ends "+
			"converged rather than on τ in mid-swap, and ΔQ stays 0; the gain column is still the noise of 60–95 ms runs (two regenerations "+
			"of this table read +5 / −1 / +7 / +5 % and −10 / +1 / −2 / −1 %)")
	return t, nil
}

// Table7 reproduces Table VII: ground-truth quality on LFR benchmarks of
// growing size.
//
// Expected shape (paper): precision 0.90–0.98 and F-score 0.94–0.99,
// decreasing slowly with size; recall 1.0 in every case.
func Table7(s Scale, p int) (*Table, error) {
	t := &Table{
		ID:     "Table VII",
		Title:  fmt.Sprintf("LFR ground-truth quality (p=%d ranks)", p),
		Header: []string{"|V|", "|E|", "Precision", "Recall", "F-score", "NMI"},
	}
	sizes := []int64{5000, 10000, 20000, 40000, 80000}
	for i, n := range sizes {
		n = n * s.factor()
		gn, edges, truth, err := gen.LFR(gen.DefaultLFR(n, 0.2, 700+uint64(i)))
		if err != nil {
			return nil, err
		}
		res, _, err := distRun(p, gn, edges, core.Baseline())
		if err != nil {
			return nil, err
		}
		score, err := compareQuality(res.GlobalComm, truth)
		if err != nil {
			return nil, err
		}
		g := gen.Build(gn, edges)
		st := graph.ComputeStats(g)
		t.AddRow(fmt.Sprintf("%d", st.Vertices), fmt.Sprintf("%d", st.UndirEdges),
			fmt.Sprintf("%.4f", score.Precision), fmt.Sprintf("%.4f", score.Recall),
			fmt.Sprintf("%.4f", score.FScore), fmt.Sprintf("%.4f", score.NMI))
	}
	t.Notes = append(t.Notes,
		"paper (350K–2M vertices): precision 0.896–0.982, F-score 0.945–0.990, recall 1.0 everywhere",
		"quality gathering uses the same root-gather collectives as the paper's assessment mode",
	)
	return t, nil
}
