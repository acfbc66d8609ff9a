package main

import (
	"encoding/json"
	"math"
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

// TestBenchReportRoundTrip writes a fresh report the way `make bench-record`
// does and holds that the exact gate accepts it and rejects four mutants of
// it that differ in one value each, naming the workload and the field.
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
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := experiments.CheckBench(rep, path); err != nil {
		t.Fatalf("a report differs from its own recording: %v", err)
	}
	if rep.Workloads[0].Breakdown[0].P2PBytes == 0 {
		t.Fatal("bench row recorded zero p2p bytes; byte accounting broken")
	}

	// mutant decodes a deep copy of the report, so a mutation never reaches rep.
	mutant := func() *experiments.BenchReport {
		var m experiments.BenchReport
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		return &m
	}
	for _, tc := range []struct {
		name   string
		mutate func(m *experiments.BenchReport)
		want   string
	}{
		{"last mantissa bit of a modularity", func(m *experiments.BenchReport) {
			q := &m.Workloads[0].Modularity
			*q = math.Float64frombits(math.Float64bits(*q) ^ 1)
		}, "workloads[smallworld-cnr].modularity"},
		{"one more p2p byte", func(m *experiments.BenchReport) {
			m.Workloads[0].Breakdown[1].P2PBytes++
		}, "workloads[smallworld-cnr].breakdown[1].p2p_bytes"},
		{"one more frontier vertex", func(m *experiments.BenchReport) {
			m.Workloads[0].Breakdown[0].FrontierPerIter[2]++
		}, "workloads[smallworld-cnr].breakdown[0].frontier_per_iter[2]"},
		{"an extra workload", func(m *experiments.BenchReport) {
			extra := m.Workloads[0]
			extra.Graph = "unrecorded"
			m.Workloads = append(m.Workloads, extra)
		}, "workloads[unrecorded] is not in the recorded file"},
	} {
		m := mutant()
		tc.mutate(m)
		if err := experiments.CheckBench(m, path); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}

	// A key the report type does not have must fail the strict decode.
	bad := strings.Replace(string(data), "\"scale\"", "\"bogus_field\": 1, \"scale\"", 1)
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badPath, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := experiments.CheckBench(rep, badPath); err == nil || !strings.Contains(err.Error(), "bogus_field") {
		t.Fatalf("unknown key in the recorded file: got %v", err)
	}
}

// TestCommittedBaselineLoads replays the committed BENCH_paperbench.json:
// it reruns what `make bench-record` ran (paperbench's defaults: the small
// testbed at p = 4, one thread) and requires the exact gate to accept it, so
// tier-1 fails on any drift in modularity, phase structure, payload bytes or
// visit counts.
func TestCommittedBaselineLoads(t *testing.T) {
	rep, err := experiments.Bench(experiments.Small, 4, 1, experiments.TestGraphs(experiments.Small))
	if err != nil {
		t.Fatal(err)
	}
	if err := experiments.CheckBench(rep, filepath.Join("..", "..", "BENCH_paperbench.json")); err != nil {
		t.Fatal(err)
	}
}
