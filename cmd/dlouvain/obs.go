// Observability wiring for dlouvain: -trace-dir exports per-rank NDJSON span
// traces, -report prints the paper-§V-A per-phase timing breakdown, and
// -pprof-addr serves net/http/pprof plus the metrics registry over expvar.
package main

import (
	"expvar"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"sync"

	"distlouvain/internal/core"
	"distlouvain/internal/obsv"
)

// obsOptions carries the observability flag values from main.
type obsOptions struct {
	traceDir  string // NDJSON span export directory ("" disables)
	report    bool   // print the per-phase timing breakdown after the run
	pprofAddr string // pprof/expvar listen address ("" disables)
}

// tracingOn reports whether any feature needs spans recorded.
func (o obsOptions) tracingOn() bool { return o.traceDir != "" || o.report }

// newTracer returns an enabled tracer for the rank, or nil (the zero-cost
// off switch) when no observability feature needs spans.
func (o obsOptions) newTracer(rank int) *obsv.Tracer {
	if !o.tracingOn() {
		return nil
	}
	return obsv.NewTracer(rank, obsv.DefaultCapacity)
}

// flushTraces writes each tracer's span ring under -trace-dir. Export
// failures are reported but never fail the run: traces are diagnostics.
func (o obsOptions) flushTraces(tracers ...*obsv.Tracer) {
	if o.traceDir == "" {
		return
	}
	for _, tr := range tracers {
		if err := obsv.WriteTraceFile(o.traceDir, tr); err != nil {
			fmt.Fprintf(os.Stderr, "dlouvain: trace export: %v\n", err)
		}
	}
}

// printReport renders the rank's §V-A-style breakdown table on stdout.
func (o obsOptions) printReport(tr *obsv.Tracer) {
	if !o.report || tr == nil {
		return
	}
	obsv.BuildReport(tr.Snapshot()).Format(os.Stdout)
	if d := tr.Dropped(); d > 0 {
		fmt.Printf("note: %d spans overwritten (ring of %d full)\n", d, obsv.DefaultCapacity)
	}
}

// pprofOnce guards the singleton debug server: expvar.Publish panics on a
// duplicate name, and one process serves one address.
var pprofOnce sync.Once

// startPprof serves net/http/pprof and, when a registry is given, its
// expvar snapshot under /debug/vars, on addr. Empty addr disables.
func startPprof(addr string, reg *obsv.Registry) {
	if addr == "" {
		return
	}
	pprofOnce.Do(func() {
		if reg != nil {
			expvar.Publish("dlouvain", expvar.Func(func() any { return reg.ExpvarSnapshot() }))
		}
		go func() {
			if err := http.ListenAndServe(addr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "dlouvain: pprof server: %v\n", err)
			}
		}()
	})
}

// recordRunMetrics freezes a completed run's headline results into the
// registry timeline, one record per phase plus a run summary.
func recordRunMetrics(reg *obsv.Registry, res *core.Result) {
	if reg == nil || res == nil {
		return
	}
	for i, ph := range res.Phases {
		reg.RecordEvent("phase", fmt.Sprintf("phase[%d]", i), map[string]float64{
			"vertices":   float64(ph.Vertices),
			"iterations": float64(ph.Iterations),
			"modularity": ph.Modularity,
		})
	}
	reg.RecordEvent("run", "done", map[string]float64{
		"communities": float64(res.Communities),
		"modularity":  res.Modularity,
		"phases":      float64(len(res.Phases)),
		"iterations":  float64(res.TotalIterations),
		"seconds":     res.Runtime.Seconds(),
	})
}
