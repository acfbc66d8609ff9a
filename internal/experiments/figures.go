package experiments

import (
	"fmt"
	"strings"

	"distlouvain/internal/core"
	"distlouvain/internal/gen"
	"distlouvain/internal/quality"
)

func compareQuality(detected, truth []int64) (quality.Score, error) {
	return quality.Compare(detected, truth)
}

// Fig2 renders the threshold-cycling schedule (the paper's Fig. 2
// illustration): phase index → τ, for two full cycles.
func Fig2() *Table {
	t := &Table{
		ID:     "Fig. 2",
		Title:  "Threshold cycling schedule",
		Header: []string{"phase", "tau"},
	}
	sched := core.PaperTauSchedule()
	for i := 0; i < 2*len(sched); i++ {
		t.AddRow(fmt.Sprintf("%d", i), fmt.Sprintf("%.0e", sched[i%len(sched)]))
	}
	t.Notes = append(t.Notes, "phases 0–2: 1e-3, 3–6: 1e-4, 7–9: 1e-5, 10–12: 1e-6, repeating (Fig. 2)")
	return t
}

// Fig3Variants is the strong-scaling variant set of the paper's Fig. 3.
func Fig3Variants() []core.Config {
	return []core.Config{
		core.Baseline(),
		core.ThresholdCycling(),
		core.ET(0.25), core.ET(0.75),
		core.ETC(0.25), core.ETC(0.75),
	}
}

// Fig3 reproduces the strong-scaling study: execution time per graph, per
// variant, per rank count.
//
// Expected shape (paper): ET/ETC curves sit below Baseline for most graphs;
// moderate/large inputs scale to 1K–2K procs before communication
// dominates. On this single-core host the rank axis exercises the
// communication structure (bytes, messages) rather than wall-clock speedup,
// so the table also reports communicated bytes.
func Fig3(s Scale, graphs []Workload, ranks []int) (*Table, error) {
	t := &Table{
		ID:     "Fig. 3",
		Title:  "Strong scaling: execution time by variant and rank count",
		Header: []string{"graph", "variant", "ranks", "time (s)", "iters", "phases", "Q", "MB sent"},
	}
	for _, w := range graphs {
		for _, cfg := range Fig3Variants() {
			for _, p := range ranks {
				res, dur, err := distRun(p, w.N, w.Edges, cfg)
				if err != nil {
					return nil, err
				}
				t.AddRow(w.Name, cfg.VariantName(), fmt.Sprintf("%d", p),
					fmt.Sprintf("%.3f", dur.Seconds()),
					fmt.Sprintf("%d", res.TotalIterations),
					fmt.Sprintf("%d", len(res.Phases)),
					fmt.Sprintf("%.4f", res.Modularity),
					fmt.Sprintf("%.2f", float64(res.Traffic.TotalBytes())/1e6))
			}
		}
	}
	t.Notes = append(t.Notes,
		"paper: 16–4096 processes of NERSC Cori; ET/ETC fastest for most inputs (Table IV summarizes the winners)",
		"single-core host: compare variants at fixed rank count; rank axis shows communication growth",
	)
	return t, nil
}

// Fig4 renders the weak-scaling series measured by Table5.
//
// Expected shape (paper): near-constant execution time as graph size and
// rank count grow together (on a real multi-node machine).
func Fig4(points []WeakScalePoint) *Table {
	t := &Table{
		ID:     "Fig. 4",
		Title:  "Weak scaling on SSCA#2 (Baseline)",
		Header: []string{"ranks", "|V|", "|E|", "time (s)", "time/rank-normalized", "iters"},
	}
	if len(points) == 0 {
		return t
	}
	base := points[0].Seconds
	for _, pt := range points {
		norm := pt.Seconds / (base * float64(pt.Ranks))
		t.AddRow(fmt.Sprintf("%d", pt.Ranks), fmt.Sprintf("%d", pt.Vertices), fmt.Sprintf("%d", pt.Edges),
			fmt.Sprintf("%.3f", pt.Seconds), fmt.Sprintf("%.2f", norm), fmt.Sprintf("%d", pt.Iterations))
	}
	t.Notes = append(t.Notes,
		"paper: flat curves on 1–512 processes (time constant as work/process is fixed)",
		"on one core, total work grows with ranks; the rank-normalized column recovers the flat weak-scaling shape",
	)
	return t
}

// ConvergenceVariants is the Figs. 5–6 variant set.
func ConvergenceVariants() []core.Config {
	return []core.Config{
		core.Baseline(),
		core.ET(0.25), core.ET(0.75),
		core.ETC(0.25), core.ETC(0.75),
	}
}

// Fig5and6 reproduces the convergence-characteristics figures: per-phase
// modularity growth and iterations per phase for the ET/ETC variants, on a
// banded mesh (Fig. 5: nlpkkt240) and a power-law web graph (Fig. 6:
// web-cc12-PayLevelDomain).
//
// Expected shape (paper): on the banded input ET(0.25) converges in fewer
// phases than ET(0.75) (aggressive deactivation starves moves and stretches
// convergence); on the power-law web input the ordering reverses; the two
// ETC variants behave almost identically because the 90%-inactive exit
// dominates the τ test.
func Fig5and6(s Scale, p int) (*Table, *Table, error) {
	mn, me := gen.Grid2D(100*s.factor(), 100, true)
	mesh := Workload{Name: "mesh-nlpkkt", PaperGraph: "nlpkkt240 (401.2M edges)", N: mn, Edges: me}

	wn, we, err := gen.RMAT(rmScale(12, s.factor()), 8, 0.65, 0.15, 0.15, 0.05, 105)
	if err != nil {
		return nil, nil, err
	}
	web := Workload{Name: "rmat-webcc12", PaperGraph: "web-cc12-PayLevelDomain (1.2B edges)", N: wn, Edges: we}

	mk := func(id string, w Workload) (*Table, error) {
		t := &Table{
			ID:     id,
			Title:  fmt.Sprintf("Convergence characteristics of %s (as %s) on %d ranks", w.Name, w.PaperGraph, p),
			Header: []string{"variant", "phase", "iterations", "modularity", "inactive", "exit", "Q trajectory", "moves/iter"},
		}
		for _, cfg := range ConvergenceVariants() {
			res, _, err := distRun(p, w.N, w.Edges, cfg)
			if err != nil {
				return nil, err
			}
			for i, ph := range res.Phases {
				t.AddRow(cfg.VariantName(), fmt.Sprintf("%d", i),
					fmt.Sprintf("%d", ph.Iterations), fmt.Sprintf("%.4f", ph.Modularity),
					fmt.Sprintf("%.0f%%", ph.InactiveFrac*100), string(ph.Exit),
					sparkline(ph.QTrajectory), movesSummary(ph.MovesTrajectory))
			}
		}
		return t, nil
	}
	t5, err := mk("Fig. 5", mesh)
	if err != nil {
		return nil, nil, err
	}
	t5.Notes = append(t5.Notes,
		"paper: ET(0.25) beats ET(0.75) here — ET(0.75) needs 2.6x the phases; ETC(0.25) ≈ ETC(0.75)",
		"the long first phase of the paper's mesh no longer occurs here: until ΔQ ties were hashed (DESIGN §8) "+
			"the baseline's phase 0 ran 139 iterations (177 in all, final Q 0.8615) and ET(0.25)'s 97 (136, 0.8645) — "+
			"label chasing under the grid's natural numbering; the phase-count ordering of the two ET variants is unchanged")
	t6, err := mk("Fig. 6", web)
	if err != nil {
		return nil, nil, err
	}
	t6.Notes = append(t6.Notes,
		"paper: converse ordering — ET(0.75) is 16% faster than ET(0.25) at a 4% modularity cost")
	return t5, t6, nil
}

// movesSummary compresses a per-iteration migration series to
// first→mid→last, the §IV-B decay at a glance.
func movesSummary(ms []int64) string {
	switch len(ms) {
	case 0:
		return "-"
	case 1:
		return fmt.Sprintf("%d", ms[0])
	case 2:
		return fmt.Sprintf("%d→%d", ms[0], ms[1])
	default:
		return fmt.Sprintf("%d→%d→%d", ms[0], ms[len(ms)/2], ms[len(ms)-1])
	}
}

// sparkline renders a modularity trajectory compactly.
func sparkline(qs []float64) string {
	if len(qs) == 0 {
		return "-"
	}
	parts := make([]string, 0, len(qs))
	for _, q := range qs {
		parts = append(parts, fmt.Sprintf("%.3f", q))
	}
	if len(parts) > 8 {
		head := strings.Join(parts[:4], "→")
		tail := strings.Join(parts[len(parts)-2:], "→")
		return head + "→…→" + tail
	}
	return strings.Join(parts, "→")
}

// Profile reproduces the §V-A breakdown: where the Baseline run spends its
// time on the friendster analogue.
//
// Expected shape (paper, 256 procs): 98% in the Louvain iterations — ~34%
// communicating community information, ~40% in the modularity allreduce,
// ~22% local compute — 1% rebuild, 1% input I/O.
func Profile(s Scale, p int) (*Table, error) {
	w := FriendsterLike(s)
	res, dur, err := distRun(p, w.N, w.Edges, core.Baseline())
	if err != nil {
		return nil, err
	}
	steps := res.Steps
	t := &Table{
		ID:     "Profile (§V-A)",
		Title:  fmt.Sprintf("Baseline time breakdown on %s, p=%d", w.Name, p),
		Header: []string{"step", "time (s)", "share"},
	}
	total := dur.Seconds()
	add := func(name string, sec float64) {
		t.AddRow(name, fmt.Sprintf("%.3f", sec), fmt.Sprintf("%.0f%%", 100*sec/total))
	}
	add("ghost vertex exchange", steps.GhostComm.Seconds())
	add("community info + updates", steps.CommunityComm.Seconds())
	add("modularity/control allreduce", steps.Allreduce.Seconds())
	add("local compute (ΔQ sweeps)", steps.Compute.Seconds())
	add("graph rebuild", steps.Rebuild.Seconds())
	other := total - steps.GhostComm.Seconds() - steps.CommunityComm.Seconds() -
		steps.Allreduce.Seconds() - steps.Compute.Seconds() - steps.Rebuild.Seconds()
	add("other (setup, gather)", other)
	t.Notes = append(t.Notes,
		"paper (256 procs, HPCToolkit): 34% community communication, 40% allreduce, 22% compute, 1% rebuild, 1% I/O",
		fmt.Sprintf("traffic: %.2f MB point-to-point + %.2f MB collective payload at rank 0",
			float64(res.Traffic.SentBytes)/1e6, float64(res.Traffic.CollBytes)/1e6),
	)
	return t, nil
}
