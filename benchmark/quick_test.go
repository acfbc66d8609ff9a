package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestQuickBenchmark runs every workload through both passes at -quick size,
// so that go test proves in seconds that each workload, each correctness
// check and each field of the output still works.
func TestQuickBenchmark(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(nproc))
	out := t.TempDir()
	opt := &options{seed: 1, quick: true, outDir: out, workDir: t.TempDir()}
	rep := runWorkloads(workloads, opt, "both")

	emitted := map[string]bool{}
	for _, w := range workloads {
		wr := rep.Workloads[w.Name]
		if wr == nil {
			t.Fatalf("%s: no report", w.Name)
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%q", w.Name, wr.Correct, wr.Attempted, wr.Failed, wr.Problems)
		}
		for _, d := range endToEnd {
			if m, ok := wr.Metrics[d.Name]; !ok || m.Median == 0 {
				t.Errorf("%s: end-to-end metric %s missing or zero (%+v)", w.Name, d.Name, m)
			}
		}
		for name := range wr.Metrics {
			emitted[name] = true
		}

		// The result line names every metric of both tables and nothing else.
		line := wr.line()
		if len(line.Metrics) != len(endToEnd)+len(perLayer) || !line.Correct || line.Attempted < 1 {
			t.Errorf("%s: result line has %d metrics, correct=%v, attempted=%d", w.Name, len(line.Metrics), line.Correct, line.Attempted)
		}
		for name, v := range line.Metrics {
			if def, ok := metricIndex[name]; !ok || def.Unit != v.Unit {
				t.Errorf("%s: result line metric %s (%s) is not in the tables", w.Name, name, v.Unit)
			}
		}
		if _, err := json.Marshal(line); err != nil {
			t.Errorf("%s: result line does not encode: %v", w.Name, err)
		}

		// The traced pass left a loadable trace-event file with both the
		// harness's spans and the ranks' own.
		data, err := os.ReadFile(wr.TraceFile)
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		var tf struct {
			TraceEvents []traceEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Errorf("%s: trace file does not load: %v", w.Name, err)
		}
		cats := map[string]int{}
		for _, ev := range tf.TraceEvents {
			cats[ev.Cat]++
		}
		if cats["harness"] == 0 || cats["iteration"] == 0 || cats["collective"] == 0 {
			t.Errorf("%s: trace file lacks harness or rank spans: %v", w.Name, cats)
		}
		if wr.Metrics["obsv.dropped"].Median != 0 {
			t.Errorf("%s: tracer dropped spans", w.Name)
		}
	}
	// Every name in the tables is emitted by some workload; samples.add
	// already refuses names that are not in the tables.
	for name := range metricIndex {
		if !emitted[name] {
			t.Errorf("metric %s is in the tables but no workload emits it", name)
		}
	}

	// The transports are interchangeable: same bits, same iterations.
	lat, tcp := rep.Workloads["band-latency"].Metrics, rep.Workloads["band-tcp"].Metrics
	for _, name := range []string{"modularity", "core.iterations", "core.touched", "mpi.coll_bytes"} {
		if lat[name].Median != tcp[name].Median {
			t.Errorf("band-tcp and band-latency disagree on %s: %v vs %v", name, tcp[name].Median, lat[name].Median)
		}
	}
	svc := rep.Workloads["svc-mixed"].Metrics
	if svc["service.cache_hits"].Median != 4 || svc["service.worlds_launched"].Median != 4 || svc["supervisor.restarts"].Median != 0 {
		t.Errorf("svc-mixed counters: %+v %+v", svc["service.cache_hits"], svc["service.worlds_launched"])
	}

	// -json and -compare: a report agrees with itself, and a slower copy of
	// it is called a regression.
	path := filepath.Join(out, "report.json")
	if err := writeJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	a, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if !compareReports(&buf, a, a) {
		t.Errorf("a report does not agree with itself:\n%s", buf.String())
	}
	b, _ := readReport(path)
	slow := b.Workloads["rmat-coarsen"].Metrics["wall_s"]
	slow.Median *= 2
	b.Workloads["rmat-coarsen"].Metrics["wall_s"] = slow
	count := b.Workloads["band-tcp"].Metrics["core.iterations"]
	count.Median++
	b.Workloads["band-tcp"].Metrics["core.iterations"] = count
	buf.Reset()
	if compareReports(&buf, a, b) {
		t.Errorf("a doubled wall_s and a changed count passed -compare:\n%s", buf.String())
	}
	for _, want := range []string{verdictRegressed, "core.iterations# differs"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("-compare output lacks %q:\n%s", want, buf.String())
		}
	}
}
