// Benchmarks regenerating the paper's tables and figures at reduced size —
// one target per table/figure; cmd/paperbench runs the full-size versions
// and prints the complete rows. Run with:
//
//	go test -bench=. -benchmem
package distlouvain

import (
	"fmt"
	"testing"

	"distlouvain/internal/core"
	"distlouvain/internal/experiments"
	"distlouvain/internal/gen"
	"distlouvain/internal/quality"
	"distlouvain/internal/seq"
)

// benchGraph caches one modest input per structural family.
var benchInputs = struct {
	meshN, socialN, cliqueN int64
	mesh, social, clique    []Edge
	cliqueTruth             []int64
}{}

func initBenchInputs() {
	if benchInputs.mesh != nil {
		return
	}
	benchInputs.meshN, benchInputs.mesh = gen.Grid2D(60, 60, true)
	var err error
	benchInputs.socialN, benchInputs.social, _, err = gen.LFR(gen.DefaultLFR(4000, 0.35, 17))
	if err != nil {
		panic(err)
	}
	benchInputs.cliqueN, benchInputs.clique, benchInputs.cliqueTruth, err =
		gen.SSCA2(gen.SSCA2Options{N: 4000, MaxCliqueSize: 24, InterProb: 0.02, Seed: 18})
	if err != nil {
		panic(err)
	}
}

// BenchmarkTable1_ET_Alpha measures the shared-memory ET sweep endpoints
// (α = 0 baseline vs α = 1 most aggressive) on the banded input, where the
// paper reports the largest savings: one rank, as Table I runs it.
func BenchmarkTable1_ET_Alpha(b *testing.B) {
	initBenchInputs()
	edges := gen.Build(benchInputs.meshN, benchInputs.mesh).UndirectedEdges()
	for _, alpha := range []float64{0, 1} {
		b.Run(fmt.Sprintf("alpha=%.0f", alpha), func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := core.RunOnEdges(1, benchInputs.meshN, edges, core.Config{Threads: 1, Alpha: alpha, Seed: 42})
				if err != nil {
					b.Fatal(err)
				}
				iters = res.TotalIterations
			}
			b.ReportMetric(float64(iters), "louvain-iters")
		})
	}
}

// BenchmarkTable2_Graphs measures the serial reference on one graph per
// structural family (the Table II modularity column).
func BenchmarkTable2_Graphs(b *testing.B) {
	initBenchInputs()
	cases := []struct {
		name  string
		n     int64
		edges []Edge
	}{
		{"banded", benchInputs.meshN, benchInputs.mesh},
		{"social", benchInputs.socialN, benchInputs.social},
		{"cliques", benchInputs.cliqueN, benchInputs.clique},
	}
	for _, c := range cases {
		g := gen.Build(c.n, c.edges)
		b.Run(c.name, func(b *testing.B) {
			var q float64
			for i := 0; i < b.N; i++ {
				q = seq.Run(g, seq.Options{}).Modularity
			}
			b.ReportMetric(q, "modularity")
		})
	}
}

// BenchmarkTable3_DistVsShared measures the distributed engine against the
// shared-memory comparator at equal concurrency (the Table III overhead):
// 4 ranks × 1 thread against 1 rank × 4 threads.
func BenchmarkTable3_DistVsShared(b *testing.B) {
	initBenchInputs()
	edges := gen.Build(benchInputs.socialN, benchInputs.social).UndirectedEdges()
	b.Run("distributed-4ranks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunOnEdges(4, benchInputs.socialN, benchInputs.social, core.Baseline()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared-4threads", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunOnEdges(1, benchInputs.socialN, edges, core.Config{Threads: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable4_BestVariant measures Baseline against the variant the
// paper most often crowns (ETC(0.25)).
func BenchmarkTable4_BestVariant(b *testing.B) {
	initBenchInputs()
	for _, cfg := range []core.Config{core.Baseline(), core.ETC(0.25)} {
		b.Run(cfg.VariantName(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.RunOnEdges(2, benchInputs.meshN, benchInputs.mesh, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable5_WeakScaling measures SSCA#2 configurations with fixed
// work per rank (Table V / Fig. 4).
func BenchmarkTable5_WeakScaling(b *testing.B) {
	for _, p := range []int{1, 2, 4} {
		opt := gen.SSCA2ForScale(int64(p), 1500, 500)
		n, edges, _, err := gen.SSCA2(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("ranks=%d", p), func(b *testing.B) {
			var q float64
			for i := 0; i < b.N; i++ {
				res, err := core.RunOnEdges(p, n, edges, core.Baseline())
				if err != nil {
					b.Fatal(err)
				}
				q = res.Modularity
			}
			b.ReportMetric(q, "modularity")
		})
	}
}

// BenchmarkTable6_ETplusTC measures ET(0.25) with and without Threshold
// Cycling (Table VI's ~10% combination gain).
func BenchmarkTable6_ETplusTC(b *testing.B) {
	initBenchInputs()
	for _, cfg := range []core.Config{core.ET(0.25), core.ETWithTC(0.25)} {
		b.Run(cfg.VariantName(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.RunOnEdges(2, benchInputs.socialN, benchInputs.social, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable7_LFRQuality measures the full quality-assessment path:
// distributed detection plus the root gather and the F-score computation.
func BenchmarkTable7_LFRQuality(b *testing.B) {
	n, edges, truth, err := gen.LFR(gen.DefaultLFR(4000, 0.2, 700))
	if err != nil {
		b.Fatal(err)
	}
	var f float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunOnEdges(2, n, edges, core.Baseline())
		if err != nil {
			b.Fatal(err)
		}
		score, err := quality.Compare(res.GlobalComm, truth)
		if err != nil {
			b.Fatal(err)
		}
		f = score.FScore
	}
	b.ReportMetric(f, "f-score")
}

// BenchmarkFig3_StrongScaling measures the Baseline across rank counts on
// the social analogue (the Fig. 3 curves; on one core the rank axis
// exposes communication overhead rather than speedup).
func BenchmarkFig3_StrongScaling(b *testing.B) {
	initBenchInputs()
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ranks=%d", p), func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				res, err := core.RunOnEdges(p, benchInputs.socialN, benchInputs.social, core.Baseline())
				if err != nil {
					b.Fatal(err)
				}
				bytes = res.Traffic.TotalBytes()
			}
			b.ReportMetric(float64(bytes)/1e6, "MB-sent")
		})
	}
}

// BenchmarkFig5_ConvergenceMesh measures ET(0.25) vs ET(0.75) on the banded
// input (Fig. 5: the 0.25 setting should need fewer total iterations).
func BenchmarkFig5_ConvergenceMesh(b *testing.B) {
	initBenchInputs()
	for _, cfg := range []core.Config{core.ET(0.25), core.ET(0.75)} {
		b.Run(cfg.VariantName(), func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := core.RunOnEdges(2, benchInputs.meshN, benchInputs.mesh, cfg)
				if err != nil {
					b.Fatal(err)
				}
				iters = res.TotalIterations
			}
			b.ReportMetric(float64(iters), "louvain-iters")
		})
	}
}

// BenchmarkFig6_ConvergenceWeb mirrors Fig. 6 on a power-law web analogue,
// where the paper observes the converse ET ordering.
func BenchmarkFig6_ConvergenceWeb(b *testing.B) {
	n, edges, err := gen.RMAT(11, 8, 0.65, 0.15, 0.15, 0.05, 105)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []core.Config{core.ET(0.25), core.ET(0.75)} {
		b.Run(cfg.VariantName(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.RunOnEdges(2, n, edges, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProfile_Section5A measures one full Baseline run with the step
// timers the §V-A breakdown reports.
func BenchmarkProfile_Section5A(b *testing.B) {
	initBenchInputs()
	var commFrac float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunOnEdges(4, benchInputs.socialN, benchInputs.social, core.Baseline())
		if err != nil {
			b.Fatal(err)
		}
		total := res.Steps.Total.Seconds()
		if total > 0 {
			commFrac = (res.Steps.GhostComm.Seconds() + res.Steps.CommunityComm.Seconds() +
				res.Steps.Allreduce.Seconds()) / total
		}
	}
	b.ReportMetric(100*commFrac, "comm-%")
}

// BenchmarkWorkload runs one whole time to solution — dgraph.Build + core.Run,
// baseline variant, 2 in-process ranks × 1 thread — on the inputs of the
// benchmark/ workloads of the same families (same generators and parameters
// as benchmark/workloads.go, seed 1), so that "what does a fresh profile say
// is next" is `make profile W=band8000` rather than an ad-hoc harness.
func BenchmarkWorkload(b *testing.B) {
	for _, w := range []struct {
		name string
		make func() (int64, []Edge, error)
	}{
		{"band8000", func() (int64, []Edge, error) {
			n, edges := gen.BandedMesh(8000, 6)
			return n, edges, nil
		}},
		{"lfr100k", func() (int64, []Edge, error) {
			n, edges, _, err := gen.LFR(gen.DefaultLFR(100000, 0.3, 1))
			return n, edges, err
		}},
		{"rmat17", func() (int64, []Edge, error) { return gen.RMAT(17, 8, .57, .19, .19, .05, 1) }},
	} {
		b.Run(w.name, func(b *testing.B) {
			n, edges, err := w.make()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := core.RunOnEdges(2, n, edges, core.Baseline())
				if err != nil {
					b.Fatal(err)
				}
				iters = res.TotalIterations
			}
			b.ReportMetric(float64(iters), "louvain-iters")
		})
	}
}

// BenchmarkQuickstartAPI measures the public entry point end to end (small
// input; dominated by fixed per-run costs).
func BenchmarkQuickstartAPI(b *testing.B) {
	n, edges := gen.Grid2D(20, 20, true)
	for i := 0; i < b.N; i++ {
		if _, err := Detect(n, edges, Options{Ranks: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentHarness exercises one full experiment runner (kept the
// smallest: Fig. 2's schedule rendering plus a single Fig. 3 cell).
func BenchmarkExperimentHarness(b *testing.B) {
	ws := experiments.TestGraphs(experiments.Small)
	w, err := experiments.FindGraph(ws, "mesh-channel")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(experiments.Small, []experiments.Workload{w}, []int{1}); err != nil {
			b.Fatal(err)
		}
	}
}
