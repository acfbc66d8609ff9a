package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distlouvain/internal/experiments"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,8")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("got %v", got)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := parseInts("0"); err == nil {
		t.Fatal("expected positivity error")
	}
	if _, err := parseInts("-3"); err == nil {
		t.Fatal("expected positivity error")
	}
}

// TestBenchReportRoundTrip runs the bench experiment on one small workload
// and pushes the report through the same write/load/compare cycle that
// `make bench-record` and the CI smoke gate use.
func TestBenchReportRoundTrip(t *testing.T) {
	ws := experiments.TestGraphs(experiments.Small)
	w, err := experiments.FindGraph(ws, "smallworld-cnr")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := experiments.Bench(experiments.Small, 2, 1, []experiments.Workload{w})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != 1 || rep.Workloads[0].Graph != "smallworld-cnr" {
		t.Fatalf("unexpected workloads: %+v", rep.Workloads)
	}
	bw := rep.Workloads[0]
	if bw.Modularity <= 0 || bw.Phases == 0 || bw.Iterations == 0 || len(bw.Breakdown) == 0 {
		t.Fatalf("degenerate bench row: %+v", bw)
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := experiments.LoadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := experiments.CompareBench(rep, base, 0, 0); err != nil {
		t.Fatalf("self-comparison at zero tolerance: %v", err)
	}

	// A modularity deviation beyond tolerance must fail the gate.
	drifted := *rep
	drifted.Workloads = append([]experiments.BenchWorkload(nil), rep.Workloads...)
	drifted.Workloads[0].Modularity += 0.01
	if err := experiments.CompareBench(&drifted, base, 0.005, 0.05); err == nil {
		t.Fatal("CompareBench accepted a 0.01 modularity drift at tol 0.005")
	} else if !strings.Contains(err.Error(), "modularity") {
		t.Fatalf("unexpected gate error: %v", err)
	}

	// A payload regression beyond byte-tol must fail the gate too. The bench
	// row must actually carry byte columns for the gate to bite.
	if p2p, _ := experiments.SumWorkloadBytes(rep.Workloads[0]); p2p == 0 {
		t.Fatal("bench row recorded zero p2p bytes; byte accounting broken")
	}
	bloated := *rep
	bloated.Workloads = append([]experiments.BenchWorkload(nil), rep.Workloads...)
	bloated.Workloads[0].Breakdown = append([]experiments.BenchPhase(nil), rep.Workloads[0].Breakdown...)
	bloated.Workloads[0].Breakdown[0].P2PBytes *= 2
	if err := experiments.CompareBench(&bloated, base, 0.005, 0.05); err == nil {
		t.Fatal("CompareBench accepted a doubled p2p payload at byte-tol 0.05")
	} else if !strings.Contains(err.Error(), "payload") {
		t.Fatalf("unexpected gate error: %v", err)
	}

	// Schema drift (unknown field) must fail the strict loader.
	bad := strings.Replace(string(data), "\"schema_version\"", "\"bogus_field\": 1, \"schema_version\"", 1)
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badPath, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.LoadBenchReport(badPath); err == nil {
		t.Fatal("LoadBenchReport accepted an unknown field")
	}
}

// TestCommittedBaselineLoads guards the recorded BENCH_paperbench.json at
// the repository root: it must stay schema-valid and non-degenerate.
func TestCommittedBaselineLoads(t *testing.T) {
	rep, err := experiments.LoadBenchReport(filepath.Join("..", "..", "BENCH_paperbench.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != experiments.BenchSchemaVersion {
		t.Fatalf("baseline schema %d, code expects %d", rep.SchemaVersion, experiments.BenchSchemaVersion)
	}
	if len(rep.Workloads) == 0 {
		t.Fatal("baseline has no workloads")
	}
	for _, w := range rep.Workloads {
		if w.Phases == 0 || w.Iterations == 0 {
			t.Fatalf("degenerate baseline row %s: %+v", w.Graph, w)
		}
	}
	if len(rep.FrontierGate) == 0 {
		t.Fatal("baseline has no frontier-gate rows")
	}
}
