package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

// metricReport is one metric of one workload as written by -json and read by
// -compare: the definition it was measured under and the summary of its
// samples.
type metricReport struct {
	Unit   string  `json:"unit"`
	Kind   string  `json:"kind"` // "end_to_end" or "per_layer"
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Exact  bool    `json:"exact,omitempty"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Note   string  `json:"note,omitempty"`
}

// workloadReport is every pass made over one workload.
type workloadReport struct {
	Correct    bool                    `json:"correct"`
	Attempted  int                     `json:"attempted"`
	Failed     int                     `json:"failed"`
	Problems   []string                `json:"problems,omitempty"`
	TraceFile  string                  `json:"trace_file,omitempty"`
	SelfTimeS  map[string]float64      `json:"harness_self_time_s,omitempty"`
	Metrics    map[string]metricReport `json:"metrics"`
	sampleKind map[string]bool         // kinds measured: "end_to_end", "per_layer"
}

// report is the -json document.
type report struct {
	Schema     int                        `json:"schema"`
	Seed       uint64                     `json:"seed"`
	Quick      bool                       `json:"quick"`
	GoVersion  string                     `json:"go_version"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Workloads  map[string]*workloadReport `json:"workloads"`
}

const reportSchema = 1

func newReport(opt *options) *report {
	return &report{
		Schema: reportSchema, Seed: opt.seed, Quick: opt.quick,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workloads: map[string]*workloadReport{},
	}
}

// merge folds one pass's outcome into the workload's report.
func (r *report) merge(o *outcome, kind string) *workloadReport {
	wr := r.Workloads[o.Workload]
	if wr == nil {
		wr = &workloadReport{Correct: true, Metrics: map[string]metricReport{}, sampleKind: map[string]bool{}}
		r.Workloads[o.Workload] = wr
	}
	wr.sampleKind[kind] = true
	wr.Correct = wr.Correct && o.correct()
	wr.Attempted += o.Attempted
	wr.Failed += o.Failed
	wr.Problems = append(wr.Problems, o.Problems...)
	if o.TraceFile != "" {
		wr.TraceFile = o.TraceFile
	}
	for name, d := range o.Self {
		if wr.SelfTimeS == nil {
			wr.SelfTimeS = map[string]float64{}
		}
		wr.SelfTimeS[name] = d.Seconds()
	}
	for name, vs := range o.Samples {
		def := metricIndex[name]
		if m := median(vs); math.IsNaN(m) || math.IsInf(m, 0) {
			// Not a measurement, and not encodable as JSON either.
			wr.Correct = false
			wr.Problems = append(wr.Problems, fmt.Sprintf("%s is %v", name, m))
			continue
		}
		mr := metricReport{Unit: def.Unit, Kind: kindOf(name), Better: def.Better, Bound: def.Bound, Exact: def.Exact,
			Median: median(vs), N: len(vs), Note: o.Notes[name]}
		mr.Q1, mr.Q3 = quartiles(vs)
		wr.Metrics[name] = mr
	}
	return wr
}

// print writes the human-readable table of one workload: every metric of the
// passes that ran, by name, with unit, median, quartiles and sample count.
func (wr *workloadReport) print(w io.Writer, name string) {
	fmt.Fprintf(w, "\n== %s ==\n", name)
	fmt.Fprintf(w, "%-34s %-6s %14s %14s %14s %4s  %s\n", "metric", "unit", "median", "q1", "q3", "n", "")
	for _, tab := range []struct {
		kind string
		defs []metricDef
	}{{kindEndToEnd, endToEnd}, {kindPerLayer, perLayer}} {
		if !wr.sampleKind[tab.kind] {
			continue
		}
		for _, d := range tab.defs {
			name := d.Name
			if d.Exact {
				name += "#"
			}
			mr, ok := wr.Metrics[d.Name]
			if !ok {
				fmt.Fprintf(w, "%-34s %-6s %14s\n", name, d.Unit, "n/a")
				continue
			}
			fmt.Fprintf(w, "%-34s %-6s %14s %14s %14s %4d  %s\n", name, mr.Unit, num(mr.Median), num(mr.Q1), num(mr.Q3), mr.N, mr.Note)
		}
	}
	if len(wr.SelfTimeS) > 0 {
		names := make([]string, 0, len(wr.SelfTimeS))
		for n := range wr.SelfTimeS {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return wr.SelfTimeS[names[i]] > wr.SelfTimeS[names[j]] })
		fmt.Fprintf(w, "harness span self time (duration minus child coverage, summed by name):\n")
		for _, n := range names {
			fmt.Fprintf(w, "  %-24s %10.4f s\n", n, wr.SelfTimeS[n])
		}
	}
	if wr.TraceFile != "" {
		fmt.Fprintf(w, "trace: %s\n", wr.TraceFile)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", wr.Attempted, wr.Failed, wr.Correct)
	for _, p := range wr.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

func num(v float64) string { return fmt.Sprintf("%.6g", v) }

// resultLine is the one-object summary the benchmark contract asks for on
// the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line builds the result line: every metric of the kinds measured, by name.
// A per-layer metric that does not apply to the workload is carried as 0,
// because the line must name every metric; an end-to-end metric always
// applies, so a missing one means the pass failed and the line says so.
func (wr *workloadReport) line() resultLine {
	rl := resultLine{Correct: wr.Correct, Attempted: max(wr.Attempted, 1), Failed: wr.Failed, Metrics: map[string]resultValue{}}
	if wr.Attempted == 0 {
		rl.Correct, rl.Failed = false, 1
	}
	add := func(defs []metricDef, required bool) {
		for _, d := range defs {
			mr, ok := wr.Metrics[d.Name]
			if !ok && required {
				rl.Correct = false
			}
			rl.Metrics[d.Name] = resultValue{Value: mr.Median, Unit: d.Unit}
		}
	}
	if wr.sampleKind[kindEndToEnd] {
		add(endToEnd, true)
	}
	if wr.sampleKind[kindPerLayer] {
		add(perLayer, false)
	}
	return rl
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: report schema %d, this benchmark reads %d", path, r.Schema, reportSchema)
	}
	return &r, nil
}
