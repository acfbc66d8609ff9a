package main

import "fmt"

// metricDef is one named number the benchmark reports. The two tables below
// are the benchmark's vocabulary: BENCHMARK.json lists exactly these names
// (stats_test.go holds the two in step), the harness refuses to record a name
// that is not here, and every later performance claim refers to them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Exact marks a count that must repeat exactly from run to run on the
	// same seed (the issue's '#'); -compare checks those with bound 0.
	Exact bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the numbers a user of the system sees; every workload reports
// every one of them, and none is ever zero. The bounds are what this machine
// can resolve, not what one would wish for: two ranks on two virtual cores
// drift by about a tenth over minutes whatever the input (the seed-free mesh
// shows it), and Louvain's iteration count moves a few percent from one
// generated graph to the next, so a bound of a tenth would reject a commit
// against itself. fail_frac is not a metric here: the result line carries
// attempted/failed instead (a ratio that is always 0 has no relative bound).
var endToEnd = []metricDef{
	// Input generation (median of several), world/server start and the one
	// warm-up run. The widest bound: it is dominated by a single first run.
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	// Median time to solution: per-rank edge segments in memory →
	// dgraph.Build → core.Run → labels gathered at rank 0. On svc-mixed, the
	// time two closed-loop clients take to get a whole mixed sequence (half
	// first-seen graphs, half cache hits) through the daemon.
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.25},
	// Final modularity (mean over the graphs on svc-mixed). A run is
	// incorrect unless it equals the value recomputed from the labels, so
	// this bound only has to absorb graph-to-graph variation across seeds.
	{Name: "modularity", Unit: "Q", Better: higher, Bound: 0.05},
	// runtime.MemStats.TotalAlloc growth over one timed run (one sequence).
	// Exact to four digits on one input; the bound absorbs a phase more or
	// less from one generated graph to the next.
	{Name: "alloc_mb", Unit: "MiB", Better: lower, Bound: 0.20},
}

// perLayer are measured from outside each layer during the traced pass. No
// bounds: they explain a movement in an end-to-end metric, they do not gate.
// A metric that does not apply to a workload (service.* off svc-mixed,
// quality.* without ground truth) is printed as n/a and carried as 0 in the
// result line, which must name every metric.
var perLayer = []metricDef{
	// dgraph: distributed CSR + ghost table construction.
	{Name: "dgraph.build_s", Unit: "s", Better: lower},
	{Name: "dgraph.build_bytes", Unit: "B", Better: lower, Exact: true},
	{Name: "dgraph.ghosts", Unit: "count", Better: lower, Exact: true},

	// core: one untraced 2-rank run, read from each rank's Result.
	{Name: "core.wall_untraced_s", Unit: "s", Better: lower},
	{Name: "core.run_s", Unit: "s", Better: lower},
	{Name: "core.compute_s_max", Unit: "s", Better: lower},
	{Name: "core.compute_s_mean", Unit: "s", Better: lower},
	{Name: "core.compute_imbalance", Unit: "ratio", Better: lower},
	{Name: "core.ghost_comm_s", Unit: "s", Better: lower},
	{Name: "core.community_comm_s", Unit: "s", Better: lower},
	{Name: "core.allreduce_s", Unit: "s", Better: lower},
	{Name: "core.rebuild_s", Unit: "s", Better: lower},
	{Name: "core.phases", Unit: "count", Better: lower, Exact: true},
	{Name: "core.iterations", Unit: "count", Better: lower, Exact: true},
	{Name: "core.touched", Unit: "count", Better: lower, Exact: true},
	{Name: "core.frontier_offered", Unit: "count", Better: lower, Exact: true},
	{Name: "core.moves_per_touch", Unit: "ratio", Better: higher},
	{Name: "core.sweep_ns_per_touch", Unit: "ns", Better: lower},
	{Name: "core.iter_ms", Unit: "ms", Better: lower},
	{Name: "core.iter_p50_ms", Unit: "ms", Better: lower},
	{Name: "core.iter_p99_ms", Unit: "ms", Better: lower},
	{Name: "core.coarse_arcs_ms", Unit: "ms", Better: lower},
	{Name: "core.coarse_arcs_allocs", Unit: "count", Better: lower}, // not exact: the runtime adds one or two of its own

	// core recovery and the checkpoint container.
	{Name: "core.ckpt_overhead_s", Unit: "s", Better: lower},
	{Name: "core.resume_to_first_phase_s", Unit: "s", Better: lower},
	{Name: "ckpt.write_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "ckpt.read_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "ckpt.bytes_per_phase", Unit: "B", Better: lower, Exact: true},

	// mpi: traffic of that run (sum over ranks of Result.Traffic).
	{Name: "mpi.p2p_msgs", Unit: "count", Better: lower, Exact: true},
	{Name: "mpi.p2p_bytes", Unit: "B", Better: lower, Exact: true},
	{Name: "mpi.coll_ops", Unit: "count", Better: lower, Exact: true},
	{Name: "mpi.coll_msgs", Unit: "count", Better: lower, Exact: true},
	{Name: "mpi.coll_bytes", Unit: "B", Better: lower, Exact: true},
	{Name: "mpi.msgs_per_iter", Unit: "count", Better: lower},
	{Name: "mpi.bytes_per_iter", Unit: "B", Better: lower},

	// mpi: transport micro-runs on two ranks, and the id codec.
	{Name: "mpi.inproc.pingpong_us", Unit: "us", Better: lower},
	{Name: "mpi.inproc.allreduce_us", Unit: "us", Better: lower},
	{Name: "mpi.inproc.alltoall_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "mpi.tcp.pingpong_us", Unit: "us", Better: lower},
	{Name: "mpi.tcp.allreduce_us", Unit: "us", Better: lower},
	{Name: "mpi.tcp.alltoall_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "mpi.tcp.dial_ms", Unit: "ms", Better: lower},
	{Name: "mpi.codec.delta_encode_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "mpi.codec.delta_decode_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "mpi.codec.bytes_per_id", Unit: "B", Better: lower, Exact: true},

	// flat tables and the frontier set.
	{Name: "flat.add_ns", Unit: "ns", Better: lower},
	{Name: "flat.pair_add_ns", Unit: "ns", Better: lower},
	{Name: "flat.allocs_per_op", Unit: "count", Better: lower, Exact: true},
	{Name: "frontier.mark_ns", Unit: "ns", Better: lower},
	{Name: "frontier.sparse_ns_per_id", Unit: "ns", Better: lower},
	{Name: "frontier.dense_ns_per_id", Unit: "ns", Better: lower},

	// Baselines on the same graph, and quality against planted truth.
	{Name: "graph.csr_build_s", Unit: "s", Better: lower},
	{Name: "seq.run_s", Unit: "s", Better: lower},
	{Name: "seq.modularity", Unit: "Q", Better: higher},
	{Name: "shared.run_s", Unit: "s", Better: lower},
	{Name: "core.wall_1rank_s", Unit: "s", Better: lower},
	{Name: "core.speedup_vs_seq", Unit: "ratio", Better: higher},
	{Name: "core.speedup_vs_shared", Unit: "ratio", Better: higher},
	{Name: "core.scaling_1to2", Unit: "ratio", Better: higher},
	{Name: "core.q_gap_vs_seq", Unit: "Q", Better: lower},
	{Name: "quality.nmi", Unit: "ratio", Better: higher},
	{Name: "quality.f_score", Unit: "ratio", Better: higher},

	// obsv: what the traced run cost and recorded.
	{Name: "obsv.trace_overhead_frac", Unit: "ratio", Better: lower},
	{Name: "obsv.spans", Unit: "count", Better: lower, Exact: true},
	{Name: "obsv.dropped", Unit: "count", Better: lower, Exact: true},

	// service and supervisor, over real HTTP (svc-mixed only).
	{Name: "service.jobs_per_s", Unit: "1/s", Better: higher},
	{Name: "service.cold_p50_ms", Unit: "ms", Better: lower},
	{Name: "service.cold_p75_ms", Unit: "ms", Better: lower},
	{Name: "service.hit_p50_ms", Unit: "ms", Better: lower},
	{Name: "service.hit_p75_ms", Unit: "ms", Better: lower},
	{Name: "service.submit_ms_p50", Unit: "ms", Better: lower},
	{Name: "service.queue_wait_ms_p50", Unit: "ms", Better: lower},
	{Name: "service.run_ms_p50", Unit: "ms", Better: lower},
	{Name: "service.result_fetch_ms_p50", Unit: "ms", Better: lower},
	{Name: "service.overhead_ms", Unit: "ms", Better: lower},
	{Name: "service.cache_hits", Unit: "count", Better: higher, Exact: true},
	{Name: "service.worlds_launched", Unit: "count", Better: lower, Exact: true},
	{Name: "supervisor.restarts", Unit: "count", Better: lower, Exact: true},
	{Name: "gio.read_mb_per_s", Unit: "MB/s", Better: higher},
}

// metricIndex maps every known name to its definition.
var metricIndex = func() map[string]metricDef {
	idx := make(map[string]metricDef, len(endToEnd)+len(perLayer))
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if _, dup := idx[d.Name]; dup {
				panic("benchmark: duplicate metric " + d.Name)
			}
			idx[d.Name] = d
		}
	}
	return idx
}()

// Metric kinds, as BENCHMARK.json groups them.
const (
	kindEndToEnd = "end_to_end"
	kindPerLayer = "per_layer"
)

func kindOf(name string) string {
	for _, d := range endToEnd {
		if d.Name == name {
			return kindEndToEnd
		}
	}
	return kindPerLayer
}

// samples collects the measured values of one workload, by metric name.
type samples map[string][]float64

// add records one measured value. An unknown name is a harness bug — the
// tables above are the contract — so it panics rather than emitting a number
// BENCHMARK.json does not describe.
func (s samples) add(name string, v float64) {
	if _, ok := metricIndex[name]; !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not in the metric tables", name))
	}
	s[name] = append(s[name], v)
}
