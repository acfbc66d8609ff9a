package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles are Python's statistics.quantiles(vs, n=4), the rule
	// the ten-seed spread check applies.
	cases := []struct {
		vs          []float64
		med, q1, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{5, 4, 3, 2, 1}, 3, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{2.5, 2.7, 2.6, 2.4, 3.0, 2.9, 2.65, 2.55, 2.52, 2.51}, 2.575, 2.5075, 2.75},
	}
	for _, c := range cases {
		if got := median(c.vs); math.Abs(got-c.med) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", c.vs, got, c.med)
		}
		q1, q3 := quartiles(c.vs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for p, want := range map[float64]float64{50: 50, 75: 80, 90: 90, 99: 100, 100: 100, 1: 10} {
		if got := percentile(vs, p); got != want {
			t.Errorf("percentile(p%v) = %v, want %v", p, got, want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	cases := []struct {
		n    int
		want float64
		p    float64
	}{
		{4, 99, 50},    // too few for any tail: the median
		{19, 99, 50},   // 9.5 beyond the median is the best there is
		{20, 99, 50},   // 10 beyond p50, only 5 beyond p75
		{34, 99, 50},   // an LFR run's iterations
		{40, 99, 75},   // the forty cold jobs: exactly 10 beyond p75
		{40, 75, 75},   //
		{100, 99, 90},  // 10 beyond p90
		{200, 99, 95},  //
		{1000, 99, 99}, // 10 beyond p99
		{3305, 99, 99}, // a band run's iterations; the request caps it
		{3305, 50, 50}, //
		{20000, 100, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.want); got != c.p {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.p)
		}
	}
}

func TestValidMetricName(t *testing.T) {
	good := []string{"wall_s", "core.iter_p99_ms", "mpi.tcp.alltoall_mb_per_s", "a", "9lives", "x-y", strings.Repeat("a", 64)}
	bad := []string{"", ".hidden", "-dash", "_lead", "has space", "core.phases#", "svc/mixed", "naïve", strings.Repeat("a", 65)}
	for _, n := range good {
		if !validMetricName(n) {
			t.Errorf("%q rejected", n)
		}
	}
	for _, n := range bad {
		if validMetricName(n) {
			t.Errorf("%q accepted", n)
		}
	}
}

func TestVerdict(t *testing.T) {
	m := func(med, q1, q3 float64) metricReport {
		return metricReport{Better: lower, Bound: 0.10, Median: med, Q1: q1, Q3: q3}
	}
	cases := []struct {
		a, b metricReport
		want string
	}{
		{m(2, 1.95, 2.05), m(2.1, 2, 2.2), verdictOK},
		{m(2, 1.95, 2.05), m(2.3, 2.2, 2.4), verdictRegressed},
		{m(2, 1.95, 2.05), m(1.5, 1.4, 1.6), verdictOK},       // faster is never a regression
		{m(2, 1.7, 2.3), m(2.3, 2.2, 2.4), verdictUnresolved}, // parent spread 30% > bound
		{m(0, 0, 0), m(1, 1, 1), verdictUnresolved},           // no base to take a share of
	}
	for i, c := range cases {
		if got := verdict(c.a, c.b); got != c.want {
			t.Errorf("case %d: verdict = %s, want %s", i, got, c.want)
		}
	}
	up := metricReport{Better: higher, Bound: 0.05, Median: 0.8, Q1: 0.8, Q3: 0.8}
	down := up
	down.Median = 0.7
	if got := verdict(up, down); got != verdictRegressed {
		t.Errorf("higher-is-better drop: verdict = %s", got)
	}
	if got := verdict(down, up); got != verdictOK {
		t.Errorf("higher-is-better rise: verdict = %s", got)
	}
}

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []contractWhy    `json:"workloads"`
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractLayer  `json:"per_layer"`
}

type contractWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contractLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func wantContract() contract {
	c := contract{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractWhy{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		c.EndToEnd = append(c.EndToEnd, contractMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, contractLayer{d.Name, d.Unit, d.Better})
	}
	return c
}

var updateContract = flag.Bool("update-contract", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

// TestContractMatchesTables holds BENCHMARK.json and the harness's tables in
// step, both ways: every name the harness can emit is in the file with the
// same unit, direction and bound, and the file names nothing else.
func TestContractMatchesTables(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := wantContract()
	if *updateContract {
		if err := writeJSON(path, want); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got contract
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and the tables in metrics.go/workloads.go disagree; run go test -run TestContract -update-contract and review the diff\n got %+v\nwant %+v", got, want)
	}
}

// TestContractLimits checks the tables against the limits a BENCHMARK.json
// is refused for.
func TestContractLimits(t *testing.T) {
	unitOK := func(u string) bool {
		if u == "" || len(u) > 16 {
			return false
		}
		return strings.Trim(u, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-") == ""
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !validMetricName(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(workloads))
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if w.minReps < 1 {
			t.Errorf("workload %s: minReps %d", w.Name, w.minReps)
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	var setup, widest float64
	for _, d := range endToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		widest = max(widest, d.Bound)
		if d.Name == "setup_s" {
			setup = d.Bound
			if d.Unit != "s" || d.Better != lower {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setup == 0 || setup < widest {
		t.Errorf("setup_s must exist and carry the widest bound (has %v, widest %v)", setup, widest)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitOK(d.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		name(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}
