package experiments

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"

	"distlouvain/internal/core"
	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/mpi"
	"distlouvain/internal/obsv"
)

// BenchPhase is one phase row of a workload: the iteration count, rank 0's
// per-category payload volumes (obsv.BuildReport) and the globally-allreduced
// frontier trajectories — touched is how many vertices each sweep actually
// evaluated, frontier how many the active set offered it (equal to the
// phase's vertex count in a phase's first iteration).
type BenchPhase struct {
	Phase           int     `json:"phase"`
	Iterations      int     `json:"iterations"`
	P2PBytes        int64   `json:"p2p_bytes"`
	CollBytes       int64   `json:"coll_bytes"`
	TouchedPerIter  []int64 `json:"touched_per_iter,omitempty"`
	FrontierPerIter []int64 `json:"frontier_per_iter,omitempty"`
	// MovesPerIter / ReturnsPerIter are core.PhaseStat's trajectories of the
	// same names, DampedFrom the first iteration the return rule applied to
	// (absent: never) — returns that keep pace with the moves are a phase
	// flip-flopping rather than converging.
	MovesPerIter   []int64 `json:"moves_per_iter,omitempty"`
	ReturnsPerIter []int64 `json:"returns_per_iter,omitempty"`
	DampedFrom     int     `json:"damped_from,omitempty"`
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
// `make bench-record` commits as BENCH_paperbench.json. Every field is a
// deterministic function of the inputs, the rank count and the protocol —
// nothing in it depends on the machine or the clock (time is measured by
// benchmark/ alone) — so CheckBench compares it exactly.
type BenchReport struct {
	Scale        string          `json:"scale"`
	Workloads    []BenchWorkload `json:"workloads"`
	FrontierGate []BenchFrontier `json:"frontier_gate,omitempty"`
}

// benchTracedRun is distRun with a tracer per rank; it returns rank 0's
// result and rank 0's report, read here for its payload byte counts.
func benchTracedRun(p, threads int, w Workload, cfg core.Config) (*core.Result, *obsv.Report, error) {
	tracers := make([]*obsv.Tracer, p)
	for r := range tracers {
		tracers[r] = obsv.NewTracer(r, obsv.DefaultCapacity)
	}
	cfg.Threads = threads
	var root *core.Result
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
		return nil, nil, err
	}
	return root, obsv.BuildReport(tracers[0].Snapshot()), nil
}

// Bench runs the regression baseline: one traced distributed run per
// workload, plus the frontier gate's mesh runs.
func Bench(s Scale, p, threads int, ws []Workload) (*BenchReport, error) {
	rep := &BenchReport{Scale: scaleName(s)}
	for _, w := range ws {
		res, traced, err := benchTracedRun(p, threads, w, core.Baseline())
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
		}
		for _, pb := range traced.Phases {
			bp := BenchPhase{
				Phase:      pb.Phase,
				Iterations: pb.Iterations,
				P2PBytes:   pb.Bytes[obsv.CatP2P],
				CollBytes:  pb.Bytes[obsv.CatCollective],
			}
			if pb.Phase >= 0 && pb.Phase < len(res.Phases) {
				st := res.Phases[pb.Phase]
				bp.TouchedPerIter, bp.FrontierPerIter = st.TouchedTrajectory, st.FrontierTrajectory
				bp.MovesPerIter, bp.ReturnsPerIter, bp.DampedFrom = st.MovesTrajectory, st.ReturnsTrajectory, st.DampedFrom
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
// gate: the banded channel analogues, at two sizes, run under ET so that the
// coin, the carry-over rule and both set representations are all in the
// recorded counts.
func frontierGateWorkloads(s Scale) []Workload {
	f := s.factor()
	n, e := gen.BandedMesh(2000*f, 6)
	small := Workload{Name: "channel-like-sm", PaperGraph: "Channel (4.8M vertices, 42.7M edges)", Character: "banded", N: n, Edges: e}
	return []Workload{small, ChannelLike(s)}
}

// benchFrontierGate runs the frontier measurement: one ET(0.25) run per mesh
// workload. CheckBench holds the three counts exactly, like everything else in
// the report; there is no floor on their ratio (since ties are hashed the mesh
// converges in tens of iterations, most of them a phase's first few, which
// offer nearly every vertex: 77–82% of the full scan here, 58–99% on the
// baseline rows above).
func benchFrontierGate(s Scale, p, threads int) ([]BenchFrontier, error) {
	var out []BenchFrontier
	for _, w := range frontierGateWorkloads(s) {
		res, _, err := benchTracedRun(p, threads, w, core.ET(0.25))
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

// CheckBench is the regression gate: the fresh report must equal the one
// recorded at path value for value. A differing, missing or extra workload,
// phase, byte count, visit count or modularity bit is an error that names
// it; so is a key in the file that BenchReport does not have.
func CheckBench(fresh *BenchReport, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var recorded BenchReport
	if err := dec.Decode(&recorded); err != nil {
		return fmt.Errorf("bench baseline %s: %w", path, err)
	}
	if err := diffBench("bench", reflect.ValueOf(*fresh), reflect.ValueOf(recorded)); err != nil {
		return fmt.Errorf("bench baseline %s: %w", path, err)
	}
	return nil
}

// diffBench walks two values of one type in step and reports the first place
// they differ by its JSON path, a list row that has a graph named by it:
//
//	bench.workloads[mesh-channel].breakdown[0].p2p_bytes is 5, recorded 4
//
// Walking the type instead of listing its fields means a field added to the
// report is compared from the day it is added. Floats are compared with ==,
// which for the finite modularities here is bit equality.
func diffBench(path string, got, want reflect.Value) error {
	switch got.Kind() {
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			name, _, _ := strings.Cut(got.Type().Field(i).Tag.Get("json"), ",")
			if err := diffBench(path+"."+name, got.Field(i), want.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Slice:
		for i := 0; i < got.Len() || i < want.Len(); i++ {
			if i >= got.Len() {
				return fmt.Errorf("%s[%s] is recorded but missing from this run", path, rowName(want.Index(i), i))
			}
			row := fmt.Sprintf("%s[%s]", path, rowName(got.Index(i), i))
			if i >= want.Len() {
				return fmt.Errorf("%s is not in the recorded file", row)
			}
			if err := diffBench(row, got.Index(i), want.Index(i)); err != nil {
				return err
			}
		}
	default:
		if got.Interface() != want.Interface() {
			return fmt.Errorf("%s is %v, recorded %v", path, got.Interface(), want.Interface())
		}
	}
	return nil
}

// rowName names a list element: its graph if it has one, else its index.
func rowName(row reflect.Value, i int) string {
	if row.Kind() == reflect.Struct {
		if g := row.FieldByName("Graph"); g.IsValid() {
			return g.String()
		}
	}
	return strconv.Itoa(i)
}

// BenchTable renders the report for human consumption (the non-JSON mode of
// paperbench -exp bench).
func BenchTable(rep *BenchReport) *Table {
	t := &Table{
		ID:     "Bench",
		Title:  fmt.Sprintf("Regression baseline (scale %s)", rep.Scale),
		Header: []string{"graph", "p", "threads", "Modularity", "phases", "iters", "returns / moves (damped from)", "frontier"},
	}
	for _, w := range rep.Workloads {
		var moves, returns int64
		var damped []string
		for _, bp := range w.Breakdown {
			for i := range bp.MovesPerIter {
				moves += bp.MovesPerIter[i]
				returns += bp.ReturnsPerIter[i]
			}
			if bp.DampedFrom > 0 {
				damped = append(damped, fmt.Sprintf("phase %d: %d", bp.Phase, bp.DampedFrom))
			}
		}
		t.Rows = append(t.Rows, []string{
			w.Graph,
			fmt.Sprintf("%d", w.Ranks),
			fmt.Sprintf("%d", w.Threads),
			fmt.Sprintf("%.4f", w.Modularity),
			fmt.Sprintf("%d", w.Phases),
			fmt.Sprintf("%d", w.Iterations),
			fmt.Sprintf("%d / %d (%s)", returns, moves, cmp.Or(strings.Join(damped, ", "), "never")),
			"-",
		})
	}
	for _, g := range rep.FrontierGate {
		t.Rows = append(t.Rows, []string{
			"frontier:" + g.Graph,
			fmt.Sprintf("%d", g.Ranks),
			fmt.Sprintf("%d", g.Threads),
			fmt.Sprintf("%.4f", g.Modularity),
			"-", "-", "-",
			fmt.Sprintf("visited %.0f%% of full scan", 100*float64(g.SweepVisited)/float64(g.FullScanVisited)),
		})
	}
	return t
}
