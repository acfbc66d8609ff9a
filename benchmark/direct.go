package main

import (
	"fmt"
	"math"
	"time"

	"distlouvain/internal/core"
	"distlouvain/internal/dgraph"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
	"distlouvain/internal/seq"
)

// input is one generated graph: what the program under test is handed, plus
// what only the harness knows (planted truth, and the CSR it verifies with).
type input struct {
	n     int64
	edges []graph.RawEdge
	truth []int64 // planted communities; nil when the family has none

	csr *graph.CSR // built lazily by reference(), never shown to the program
}

// reference returns the sequential CSR of the input, the structure every
// output is re-scored on.
func (in *input) reference() *graph.CSR {
	if in.csr == nil {
		in.csr = graph.FromRawEdges(in.n, in.edges)
	}
	return in.csr
}

// jobOpts selects how one time-to-solution job runs. The zero value is the
// timed configuration: 2 ranks × 1 thread, inproc, nothing attached.
type jobOpts struct {
	ranks   int // 0 selects 2
	tcp     bool
	ckptDir string // checkpoint every phase into this directory
	resume  bool   // core.Resume from ckptDir instead of Build + Run

	// Traced pass only.
	rec      *recorder
	parent   int
	tracers  []rankTrace
	progress func(core.ProgressEvent) // rank 0's Config.Progress
	onStart  func()                   // called once the world is open, as the ranks are released
}

// jobOut is what one job returned and what the harness read around it.
type jobOut struct {
	wall         time.Duration // segments in memory → labels gathered at rank 0
	results      []*core.Result
	buildTime    []time.Duration
	buildTraffic []mpi.Snapshot
	ghosts       int64
}

func (o *jobOut) root() *core.Result { return o.results[0] }

// runJob is the benchmark's unit of work, the paper's time to solution: each
// rank takes its slice of the edge list, the ranks build the distributed
// graph and run the baseline variant (frontier default), and rank 0 ends up
// with every label. The world is opened before the clock starts and closed
// after it stops.
func runJob(in *input, o jobOpts) (*jobOut, error) {
	if o.ranks == 0 {
		o.ranks = 2
	}
	w, err := openWorld(o.ranks, o.tcp)
	if err != nil {
		return nil, err
	}
	defer w.close()

	out := &jobOut{
		results:      make([]*core.Result, o.ranks),
		buildTime:    make([]time.Duration, o.ranks),
		buildTraffic: make([]mpi.Snapshot, o.ranks),
	}
	ghosts := make([]int64, o.ranks)
	if o.onStart != nil {
		o.onStart()
	}
	out.wall, err = w.spmd(func(c *mpi.Comm) error {
		r := c.Rank()
		cfg := core.Baseline()
		cfg.GatherOutput = true
		if o.ckptDir != "" {
			cfg.CheckpointDir = o.ckptDir
			cfg.CheckpointEvery = 1
			cfg.CheckpointKeep = 64 // keep every phase so bytes per phase can be read
		}
		if r == 0 {
			cfg.Progress = o.progress
		}
		if o.tracers != nil {
			cfg.Tracer = o.tracers[r].tracer
			c.SetTracer(cfg.Tracer)
		}
		if o.resume {
			sp := o.rec.begin("core.Resume", o.parent, 1+r)
			res, err := core.Resume(c, o.ckptDir, cfg)
			o.rec.end(sp)
			out.results[r] = res
			return err
		}

		lo, hi := gio.SegmentRange(int64(len(in.edges)), r, o.ranks)
		before := c.Stats().Snapshot()
		sp := o.rec.begin("dgraph.Build", o.parent, 1+r)
		t0 := time.Now()
		dg, err := dgraph.Build(c, in.n, in.edges[lo:hi], nil)
		out.buildTime[r] = time.Since(t0)
		o.rec.end(sp)
		if err != nil {
			return err
		}
		out.buildTraffic[r] = c.Stats().Snapshot().Sub(before)
		ghosts[r] = int64(len(dg.Ghosts))

		sp = o.rec.begin("core.Run", o.parent, 1+r)
		res, err := core.Run(dg, cfg)
		o.rec.end(sp)
		out.results[r] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, g := range ghosts {
		out.ghosts += g
	}
	return out, nil
}

// qTolerance is how far a reported modularity may sit from the value
// recomputed from the labels: the distributed sum and the sequential one add
// the same terms in different orders, which costs a few ulps, never 1e-9.
const qTolerance = 1e-9

// verifyAssignment checks an assignment the program returned against the
// input it was computed from: one label per vertex, labels dense in
// [0, communities), and the reported modularity equal to the one the
// sequential scorer computes from those labels.
func verifyAssignment(in *input, labels []int64, communities int64, q float64) error {
	if int64(len(labels)) != in.n {
		return fmt.Errorf("assignment has %d labels for %d vertices", len(labels), in.n)
	}
	used := make([]bool, communities)
	distinct := int64(0)
	for v, c := range labels {
		if c < 0 || c >= communities {
			return fmt.Errorf("vertex %d has label %d outside [0,%d)", v, c, communities)
		}
		if !used[c] {
			used[c] = true
			distinct++
		}
	}
	if distinct != communities {
		return fmt.Errorf("labels are not dense: %d distinct labels for %d communities", distinct, communities)
	}
	if want := seq.Modularity(in.reference(), labels); math.Abs(want-q) > qTolerance || math.IsNaN(q) {
		return fmt.Errorf("reported modularity %.12f, recomputed from the labels %.12f", q, want)
	}
	return nil
}

// verifyJob checks one job's output, and that the run was not vacuous: the
// first iteration of every phase starts from a full frontier, so a sweep that
// touched fewer vertices than the phase has did not do its work (the failure
// mode that left the old kernel baseline measuring an empty loop).
func verifyJob(in *input, out *jobOut) error {
	res := out.root()
	if err := verifyAssignment(in, res.GlobalComm, res.Communities, res.Modularity); err != nil {
		return err
	}
	if len(res.Phases) == 0 || res.TotalIterations == 0 {
		return fmt.Errorf("vacuous run: %d phases, %d iterations", len(res.Phases), res.TotalIterations)
	}
	for p, ph := range res.Phases {
		if len(ph.TouchedTrajectory) == 0 || ph.TouchedTrajectory[0] < ph.Vertices {
			return fmt.Errorf("vacuous sweep: the first iteration of phase %d touched fewer than its %d vertices", p, ph.Vertices)
		}
	}
	return nil
}

// sameTrajectory reports whether two runs of the same input agree where a
// deterministic program must: modularity bit for bit, and iteration count.
func sameTrajectory(a, b *core.Result) error {
	if math.Float64bits(a.Modularity) != math.Float64bits(b.Modularity) || a.TotalIterations != b.TotalIterations {
		return fmt.Errorf("runs of one input disagree: Q %x vs %x, iterations %d vs %d",
			math.Float64bits(a.Modularity), math.Float64bits(b.Modularity), a.TotalIterations, b.TotalIterations)
	}
	return nil
}
