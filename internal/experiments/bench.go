package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"distlouvain/internal/core"
	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/mpi"
	"distlouvain/internal/obsv"
)

// BenchSchemaVersion identifies the BENCH_paperbench.json layout. Bump it
// when a field changes meaning; CompareBench refuses mismatched versions so
// a stale baseline fails loudly instead of comparing wrong columns.
const BenchSchemaVersion = 4

// BenchPhase is one phase row of a workload's rank-0 timing breakdown
// (obsv.BuildReport categories, §V-A). The byte columns (schema v2) are the
// per-category payload volumes of the same report: unlike the millisecond
// columns they are deterministic, so CompareBench gates on them — a protocol
// change that regrows the wire shows up as a byte regression in CI. The
// per-iteration vertex columns (schema v3) are the globally-allreduced
// frontier trajectories of the run: touched is how many vertices the sweeps
// actually evaluated, frontier how many the active set offered them (equal
// to the phase's vertex count in a phase's first iteration).
type BenchPhase struct {
	Phase           int     `json:"phase"`
	Iterations      int     `json:"iterations"`
	TotalMS         float64 `json:"total_ms"`
	ComputeMS       float64 `json:"compute_ms"`
	P2PMS           float64 `json:"p2p_ms"`
	CollectiveMS    float64 `json:"collective_ms"`
	CoarsenMS       float64 `json:"coarsen_ms"`
	P2PBytes        int64   `json:"p2p_bytes"`
	CollBytes       int64   `json:"coll_bytes"`
	TouchedPerIter  []int64 `json:"touched_per_iter,omitempty"`
	FrontierPerIter []int64 `json:"frontier_per_iter,omitempty"`
}

// BenchWorkload records one full distributed run of a testbed graph.
type BenchWorkload struct {
	Graph      string       `json:"graph"`
	Vertices   int64        `json:"vertices"`
	Edges      int          `json:"edges"`
	Ranks      int          `json:"ranks"`
	Threads    int          `json:"threads"`
	Modularity float64      `json:"modularity"`
	Phases     int          `json:"phases"`
	Iterations int          `json:"iterations"`
	WallMS     float64      `json:"wall_ms"`
	Breakdown  []BenchPhase `json:"breakdown"`
}

// BenchFrontier records one frontier-gate measurement: an ET(0.25) run on a
// mesh workload. SweepVisited sums the per-iteration active-set sizes the
// sweeps walked and Touched the ΔQ evaluations among them. FullScanVisited is
// what a sweep over every local vertex — which walks them all each iteration
// just to check the activity coin — would have visited over the same
// trajectory: Σ phase vertices × iterations. That is exact, not an estimate:
// the full scan retraces the frontier run bit for bit (make test-frontier).
type BenchFrontier struct {
	Graph           string  `json:"graph"`
	Ranks           int     `json:"ranks"`
	Threads         int     `json:"threads"`
	Modularity      float64 `json:"modularity"`
	SweepVisited    int64   `json:"sweep_visited"`
	FullScanVisited int64   `json:"full_scan_visited"`
	Touched         int64   `json:"touched"`
}

// BenchReport is the JSON document `paperbench -exp bench -json` emits and
// `make bench-record` commits as BENCH_paperbench.json. Timing fields are
// machine-dependent context; the modularity column is the deterministic
// quantity the CI smoke gate compares.
type BenchReport struct {
	SchemaVersion int             `json:"schema_version"`
	Scale         string          `json:"scale"`
	GoVersion     string          `json:"go_version"`
	MaxProcs      int             `json:"gomaxprocs"`
	Workloads     []BenchWorkload `json:"workloads"`
	FrontierGate  []BenchFrontier `json:"frontier_gate,omitempty"`
}

// benchTracedRun is distRun with a tracer per rank; it returns rank 0's
// result, rank 0's timing report and the wall time. cfg selects the variant
// (Bench uses the baseline; the wire-diet tests pass pinned configs).
func benchTracedRun(p, threads int, w Workload, cfg core.Config) (*core.Result, *obsv.Report, time.Duration, error) {
	tracers := make([]*obsv.Tracer, p)
	for r := range tracers {
		tracers[r] = obsv.NewTracer(r, obsv.DefaultCapacity)
	}
	cfg.Threads = threads
	var root *core.Result
	start := time.Now()
	err := mpi.Run(p, func(c *mpi.Comm) error {
		tr := tracers[c.Rank()]
		c.SetTracer(tr)
		rcfg := cfg
		rcfg.Tracer = tr
		lo, hi := gio.SegmentRange(int64(len(w.Edges)), c.Rank(), p)
		dg, err := dgraph.Build(c, w.N, w.Edges[lo:hi], nil)
		if err != nil {
			return err
		}
		res, err := core.Run(dg, rcfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			root = res
		}
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return root, obsv.BuildReport(tracers[0].Snapshot()), time.Since(start), nil
}

// Bench runs the benchmark baseline: one traced distributed run per
// workload, plus the frontier gate's mesh runs.
func Bench(s Scale, p, threads int, ws []Workload) (*BenchReport, error) {
	rep := &BenchReport{
		SchemaVersion: BenchSchemaVersion,
		Scale:         scaleName(s),
		GoVersion:     runtime.Version(),
		MaxProcs:      runtime.GOMAXPROCS(0),
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, w := range ws {
		res, timing, wall, err := benchTracedRun(p, threads, w, core.Baseline())
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", w.Name, err)
		}
		bw := BenchWorkload{
			Graph:      w.Name,
			Vertices:   w.N,
			Edges:      len(w.Edges),
			Ranks:      p,
			Threads:    threads,
			Modularity: res.Modularity,
			Phases:     len(res.Phases),
			Iterations: res.TotalIterations,
			WallMS:     ms(wall),
		}
		for _, pb := range timing.Phases {
			bp := BenchPhase{
				Phase:        pb.Phase,
				Iterations:   pb.Iterations,
				TotalMS:      ms(pb.Total),
				ComputeMS:    ms(pb.Cat[obsv.CatCompute]),
				P2PMS:        ms(pb.Cat[obsv.CatP2P]),
				CollectiveMS: ms(pb.Cat[obsv.CatCollective]),
				CoarsenMS:    ms(pb.Cat[obsv.CatCoarsen]),
				P2PBytes:     pb.Bytes[obsv.CatP2P],
				CollBytes:    pb.Bytes[obsv.CatCollective],
			}
			if pb.Phase >= 0 && pb.Phase < len(res.Phases) {
				bp.TouchedPerIter = res.Phases[pb.Phase].TouchedTrajectory
				bp.FrontierPerIter = res.Phases[pb.Phase].FrontierTrajectory
			}
			bw.Breakdown = append(bw.Breakdown, bp)
		}
		rep.Workloads = append(rep.Workloads, bw)
	}
	fg, err := benchFrontierGate(s, p, threads)
	if err != nil {
		return nil, err
	}
	rep.FrontierGate = fg
	return rep, nil
}

// frontierGateWorkloads are the recorded mesh workloads of the frontier
// gate: the banded channel analogues whose boundary-crawl convergence the
// ET heuristic (and on top of it, the frontier) targets. Two sizes, so the
// gate covers both a short and a long crawl.
func frontierGateWorkloads(s Scale) []Workload {
	f := s.factor()
	n, e := gen.BandedMesh(2000*f, 6)
	small := Workload{Name: "channel-like-sm", PaperGraph: "Channel (4.8M vertices, 42.7M edges)", Character: "banded", N: n, Edges: e}
	return []Workload{small, ChannelLike(s)}
}

// benchFrontierGate runs the frontier measurement: one ET(0.25) run per mesh
// workload; CompareBench then gates that the sweeps' visited count stays ≥30%
// below what the full scan would have visited.
func benchFrontierGate(s Scale, p, threads int) ([]BenchFrontier, error) {
	var out []BenchFrontier
	for _, w := range frontierGateWorkloads(s) {
		res, _, _, err := benchTracedRun(p, threads, w, core.ET(0.25))
		if err != nil {
			return nil, fmt.Errorf("bench frontier %s: %w", w.Name, err)
		}
		g := BenchFrontier{Graph: w.Name, Ranks: p, Threads: threads, Modularity: res.Modularity}
		for _, st := range res.Phases {
			g.FullScanVisited += st.Vertices * int64(st.Iterations)
			for i := range st.TouchedTrajectory {
				g.Touched += st.TouchedTrajectory[i]
				g.SweepVisited += st.FrontierTrajectory[i]
			}
		}
		out = append(out, g)
	}
	return out, nil
}

func scaleName(s Scale) string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	}
	return fmt.Sprintf("scale(%d)", int(s))
}

// LoadBenchReport reads and strictly decodes a recorded baseline; unknown
// fields are an error, so the file doubles as a schema check.
func LoadBenchReport(path string) (*BenchReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var rep BenchReport
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench baseline %s: %w", path, err)
	}
	return &rep, nil
}

// CompareBench gates a fresh report against a recorded baseline: same
// schema, every baseline workload present with matching shape (ranks,
// threads, input size), modularity within tol, and per-workload p2p /
// collective payload bytes within byteTol (relative growth) of the
// baseline. Byte counts are deterministic for a fixed protocol, so byteTol
// needs only enough slack for benign drift (an extra iteration's worth on
// a borderline workload); a workload whose baseline recorded zero bytes in
// a direction is not gated in that direction. Timing fields are
// deliberately not compared — they describe the recording machine.
func CompareBench(cur, base *BenchReport, tol, byteTol float64) error {
	if cur.SchemaVersion != base.SchemaVersion {
		return fmt.Errorf("bench schema version %d, baseline has %d (re-record the baseline)", cur.SchemaVersion, base.SchemaVersion)
	}
	if cur.Scale != base.Scale {
		return fmt.Errorf("bench scale %q, baseline recorded at %q", cur.Scale, base.Scale)
	}
	curBy := make(map[string]BenchWorkload, len(cur.Workloads))
	for _, w := range cur.Workloads {
		curBy[w.Graph] = w
	}
	for _, want := range base.Workloads {
		got, ok := curBy[want.Graph]
		if !ok {
			return fmt.Errorf("bench workload %s missing from current run", want.Graph)
		}
		if got.Ranks != want.Ranks || got.Threads != want.Threads {
			return fmt.Errorf("bench %s ran at p=%d t=%d, baseline at p=%d t=%d",
				want.Graph, got.Ranks, got.Threads, want.Ranks, want.Threads)
		}
		if got.Vertices != want.Vertices || got.Edges != want.Edges {
			return fmt.Errorf("bench %s input is %dv/%de, baseline recorded %dv/%de (generator drift)",
				want.Graph, got.Vertices, got.Edges, want.Vertices, want.Edges)
		}
		if got.Phases == 0 || got.Iterations == 0 {
			return fmt.Errorf("bench %s did no work (%d phases, %d iterations)", want.Graph, got.Phases, got.Iterations)
		}
		if d := math.Abs(got.Modularity - want.Modularity); d > tol {
			return fmt.Errorf("bench %s modularity %.6f deviates from baseline %.6f by %.6f (tol %.6f)",
				want.Graph, got.Modularity, want.Modularity, d, tol)
		}
		gotP2P, gotColl := sumBytes(got.Breakdown)
		wantP2P, wantColl := sumBytes(want.Breakdown)
		if wantP2P > 0 && float64(gotP2P) > float64(wantP2P)*(1+byteTol) {
			return fmt.Errorf("bench %s p2p payload %dB exceeds baseline %dB by more than %.1f%% (wire regression)",
				want.Graph, gotP2P, wantP2P, 100*byteTol)
		}
		if wantColl > 0 && float64(gotColl) > float64(wantColl)*(1+byteTol) {
			return fmt.Errorf("bench %s collective payload %dB exceeds baseline %dB by more than %.1f%% (wire regression)",
				want.Graph, gotColl, wantColl, 100*byteTol)
		}
	}
	// Frontier gate: on every recorded mesh workload the modularity must
	// hold and the sweeps must visit ≥30% fewer vertices than the full scan
	// would. Both sides are deterministic, so the 30% floor is a property
	// re-proven on each run, not a drift check.
	curFG := make(map[string]BenchFrontier, len(cur.FrontierGate))
	for _, g := range cur.FrontierGate {
		curFG[g.Graph] = g
	}
	for _, want := range base.FrontierGate {
		got, ok := curFG[want.Graph]
		if !ok {
			return fmt.Errorf("bench frontier gate workload %s missing from current run", want.Graph)
		}
		if d := math.Abs(got.Modularity - want.Modularity); d > tol {
			return fmt.Errorf("bench frontier %s modularity %.6f deviates from baseline %.6f by %.6f (tol %.6f)",
				want.Graph, got.Modularity, want.Modularity, d, tol)
		}
		if got.FullScanVisited == 0 {
			return fmt.Errorf("bench frontier %s full scan visited no vertices", want.Graph)
		}
		if got.SweepVisited*10 > got.FullScanVisited*7 {
			return fmt.Errorf("bench frontier %s visited %d of the full scan's %d vertices (>70%%; frontier regression)",
				want.Graph, got.SweepVisited, got.FullScanVisited)
		}
	}
	return nil
}

// sumBytes totals a workload's per-phase payload columns.
func sumBytes(phases []BenchPhase) (p2p, coll int64) {
	for _, pb := range phases {
		p2p += pb.P2PBytes
		coll += pb.CollBytes
	}
	return
}

// SumWorkloadBytes totals one workload's p2p and collective payload columns
// (the quantities CompareBench gates on).
func SumWorkloadBytes(w BenchWorkload) (p2p, coll int64) {
	return sumBytes(w.Breakdown)
}

// BenchTable renders the report for human consumption (the non-JSON mode of
// paperbench -exp bench).
func BenchTable(rep *BenchReport) *Table {
	t := &Table{
		ID:     "Bench",
		Title:  fmt.Sprintf("Benchmark baseline (scale %s, %s, GOMAXPROCS=%d)", rep.Scale, rep.GoVersion, rep.MaxProcs),
		Header: []string{"graph", "p", "threads", "Modularity", "phases", "iters", "wall"},
	}
	for _, w := range rep.Workloads {
		t.Rows = append(t.Rows, []string{
			w.Graph,
			fmt.Sprintf("%d", w.Ranks),
			fmt.Sprintf("%d", w.Threads),
			fmt.Sprintf("%.4f", w.Modularity),
			fmt.Sprintf("%d", w.Phases),
			fmt.Sprintf("%d", w.Iterations),
			fmt.Sprintf("%.0fms", w.WallMS),
		})
	}
	for _, g := range rep.FrontierGate {
		t.Rows = append(t.Rows, []string{
			"frontier:" + g.Graph,
			fmt.Sprintf("%d", g.Ranks),
			fmt.Sprintf("%d", g.Threads),
			fmt.Sprintf("%.4f", g.Modularity),
			"-", "-",
			fmt.Sprintf("visited %.0f%% of full scan", 100*float64(g.SweepVisited)/float64(g.FullScanVisited)),
		})
	}
	return t
}
