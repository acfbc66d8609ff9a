// Golden-trace tests: with the in-process transport, one driver thread per
// rank and a fixed seed, the *structure* of a rank's trace — span titles,
// nesting, ordering, counts — is a deterministic function of the algorithm,
// even though durations are not. The golden files pin that structure for
// three example graphs across the Baseline, TC and ETC variants, so any
// change to the phase/iteration control flow or to the instrumentation
// points shows up as a reviewable diff. Regenerate with `make golden`.
package obsv_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distlouvain/internal/core"
	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
	"distlouvain/internal/obsv"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden trace files from the current run")

const goldenRanks = 2

// goldenGraphs are small, fully deterministic example inputs.
func goldenGraphs() map[string]struct {
	n     int64
	edges []graph.RawEdge
} {
	twoCliques := func() (int64, []graph.RawEdge) {
		var edges []graph.RawEdge
		clique := func(vs []int64) {
			for i := range vs {
				for j := i + 1; j < len(vs); j++ {
					edges = append(edges, graph.RawEdge{U: vs[i], V: vs[j], W: 1})
				}
			}
		}
		clique([]int64{0, 1, 2, 3})
		clique([]int64{4, 5, 6, 7})
		edges = append(edges, graph.RawEdge{U: 3, V: 4, W: 1})
		return 8, edges
	}
	out := make(map[string]struct {
		n     int64
		edges []graph.RawEdge
	})
	n1, e1 := twoCliques()
	out["twocliques"] = struct {
		n     int64
		edges []graph.RawEdge
	}{n1, e1}
	n2, e2, _ := gen.PlantedPartition(4, 12, 0.6, 0.05, 7)
	out["planted"] = struct {
		n     int64
		edges []graph.RawEdge
	}{n2, e2}
	n3, e3 := gen.Grid2D(6, 6, false)
	out["grid"] = struct {
		n     int64
		edges []graph.RawEdge
	}{n3, e3}
	return out
}

func goldenVariants() map[string]core.Config {
	return map[string]core.Config{
		"baseline": core.Baseline(),
		"tc":       core.ThresholdCycling(),
		"et":       core.ET(0.25),
		"etc":      core.ETC(0.25),
	}
}

// traceStructure runs the graph on the in-process transport with a tracer
// per rank and returns each rank's structural trace skeleton.
func traceStructure(t *testing.T, p int, n int64, edges []graph.RawEdge, cfg core.Config) [][]string {
	t.Helper()
	tracers := make([]*obsv.Tracer, p)
	for r := range tracers {
		tracers[r] = obsv.NewTracer(r, obsv.DefaultCapacity)
	}
	err := mpi.Run(p, func(c *mpi.Comm) error {
		tr := tracers[c.Rank()]
		c.SetTracer(tr)
		rcfg := cfg
		rcfg.Tracer = tr
		rcfg.GatherOutput = true
		rcfg.Threads = 1
		rcfg.Seed = 1
		lo, hi := gio.SegmentRange(int64(len(edges)), c.Rank(), p)
		dg, err := dgraph.Build(c, n, edges[lo:hi], nil)
		if err != nil {
			return err
		}
		_, err = core.Run(dg, rcfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]string, p)
	for r, tr := range tracers {
		if d := tr.Dropped(); d != 0 {
			t.Fatalf("rank %d dropped %d spans; golden graphs must fit the ring", r, d)
		}
		if p := tr.Path(); p != "" {
			t.Fatalf("rank %d finished with open spans: %s", r, p)
		}
		out[r] = obsv.StructureLines(tr.Snapshot())
	}
	return out
}

func goldenPath(graphName, variant string, rank int) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%s-%s-rank%d.golden", graphName, variant, rank))
}

func TestGoldenTraces(t *testing.T) {
	for gname, g := range goldenGraphs() {
		for vname, cfg := range goldenVariants() {
			t.Run(gname+"/"+vname, func(t *testing.T) {
				got := traceStructure(t, goldenRanks, g.n, g.edges, cfg)
				for r := 0; r < goldenRanks; r++ {
					path := goldenPath(gname, vname, r)
					text := strings.Join(got[r], "\n") + "\n"
					if *updateGolden {
						if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
							t.Fatal(err)
						}
						continue
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing golden file (run `make golden`): %v", err)
					}
					if text != string(want) {
						t.Errorf("rank %d trace structure diverged from %s\n%s", r, path, structureDiff(string(want), text))
					}
				}
			})
		}
	}
}

// structureDiff renders the first divergence with context — a full dump of
// both traces would drown the signal.
func structureDiff(want, got string) string {
	w := strings.Split(strings.TrimRight(want, "\n"), "\n")
	g := strings.Split(strings.TrimRight(got, "\n"), "\n")
	limit := len(w)
	if len(g) < limit {
		limit = len(g)
	}
	for i := 0; i < limit; i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("first divergence at line %d:\n  golden: %q\n  got:    %q\n(golden %d lines, got %d lines)",
				i+1, w[i], g[i], len(w), len(g))
		}
	}
	return fmt.Sprintf("traces agree on the first %d lines but differ in length: golden %d lines, got %d lines", limit, len(w), len(g))
}

// TestTraceStructureDeterministic asserts the headline property directly:
// two identical runs produce identical span structure on every rank.
func TestTraceStructureDeterministic(t *testing.T) {
	g := goldenGraphs()["planted"]
	for vname, cfg := range goldenVariants() {
		t.Run(vname, func(t *testing.T) {
			a := traceStructure(t, goldenRanks, g.n, g.edges, cfg)
			b := traceStructure(t, goldenRanks, g.n, g.edges, cfg)
			for r := 0; r < goldenRanks; r++ {
				if strings.Join(a[r], "\n") != strings.Join(b[r], "\n") {
					t.Fatalf("rank %d structure not reproducible:\n%s", r,
						structureDiff(strings.Join(a[r], "\n"), strings.Join(b[r], "\n")))
				}
			}
		})
	}
}

// TestGoldenReportSane builds the §V-A report from a traced run and checks
// the category percentages cover the accounted time and never exceed 100%.
func TestGoldenReportSane(t *testing.T) {
	g := goldenGraphs()["planted"]
	tracers := make([]*obsv.Tracer, goldenRanks)
	for r := range tracers {
		tracers[r] = obsv.NewTracer(r, obsv.DefaultCapacity)
	}
	err := mpi.Run(goldenRanks, func(c *mpi.Comm) error {
		tr := tracers[c.Rank()]
		c.SetTracer(tr)
		cfg := core.Baseline()
		cfg.Tracer = tr
		cfg.GatherOutput = true
		lo, hi := gio.SegmentRange(int64(len(g.edges)), c.Rank(), goldenRanks)
		dg, err := dgraph.Build(c, g.n, g.edges[lo:hi], nil)
		if err != nil {
			return err
		}
		_, err = core.Run(dg, cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := obsv.BuildReport(tracers[0].Snapshot())
	if len(rep.Phases) == 0 {
		t.Fatal("report has no phase rows")
	}
	if rep.Total <= 0 {
		t.Fatal("run span did not complete")
	}
	for _, pb := range rep.Phases {
		if pb.Total <= 0 || pb.Iterations <= 0 {
			t.Fatalf("phase %d: total=%v iters=%d", pb.Phase, pb.Total, pb.Iterations)
		}
		if acc := pb.Accounted(); acc > pb.Total {
			t.Fatalf("phase %d: accounted %v exceeds wall %v (double counting)", pb.Phase, acc, pb.Total)
		}
	}
	var buf strings.Builder
	rep.Format(&buf)
	if !strings.Contains(buf.String(), "all") {
		t.Fatalf("report missing the all row:\n%s", buf.String())
	}
}
