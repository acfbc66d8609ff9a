package main

import (
	"fmt"

	"distlouvain/internal/gen"
)

// workload is one set of inputs the benchmark runs. Each exists because some
// layer does most of the work on it and some other layer almost none, so a
// change to one layer has a workload where it must show and one where it
// must not.
type workload struct {
	Name string
	Why  string // one line, repeated in BENCHMARK.json

	// make generates the input from the seed alone; nil for svc-mixed,
	// which generates a set of graphs (service.go).
	make func(seed uint64, quick bool) (*input, error)
	tcp  bool // run the ranks over loopback TCP instead of in process

	// minReps is the fewest timed repetitions a full-size run makes, however
	// short the measuring window: five runs, or three whole service
	// sequences (each is already eighty jobs, and five would not fit the
	// time one benchmark invocation is allowed).
	minReps int
}

var workloads = []workload{
	{
		Name: "lfr-compute",
		Why:  "LFR 100k: few long iterations, so the sweep kernel, flat tables and ghost payload volume dominate and per-message latency is noise",
		make: func(seed uint64, quick bool) (*input, error) {
			n, edges, truth, err := gen.LFR(gen.DefaultLFR(pick(quick, 4000, 100000), 0.3, seed))
			return &input{n: n, edges: edges, truth: truth}, err
		},
		minReps: 5,
	},
	{
		Name:    "band-latency",
		Why:     "banded mesh 8000: thousands of ~1 ms iterations on a tiny frontier, so the per-iteration protocol rounds and waiting are nearly all of the time",
		make:    bandedMesh,
		minReps: 5,
	},
	{
		Name:    "band-tcp",
		Why:     "the same mesh over loopback TCP endpoints: framing, writer goroutine and syscall cost, and must match band-latency bit for bit",
		make:    bandedMesh,
		tcp:     true,
		minReps: 5,
	},
	{
		Name: "rmat-coarsen",
		Why:  "R-MAT scale 17: extreme degree skew and few iterations, so dgraph.Build, coarsening and cross-rank compute imbalance carry the run",
		make: func(seed uint64, quick bool) (*input, error) {
			n, edges, err := gen.RMAT(int(pick(quick, 11, 17)), 8, .57, .19, .19, .05, seed)
			return &input{n: n, edges: edges}, err
		},
		minReps: 5,
	},
	{
		Name:    "svc-mixed",
		Why:     "dlouvaind over real HTTP, 2 closed-loop clients, half first-seen graphs and half cache hits: supervisor, checkpoints and job dirs instead of bare core.Run",
		minReps: 3,
	},
}

// bandedMesh has no randomness to seed: the mesh is the input, whatever the
// seed, which is what lets band-tcp be compared with band-latency bit for bit.
func bandedMesh(_ uint64, quick bool) (*input, error) {
	n, edges := gen.BandedMesh(pick(quick, 800, 8000), 6)
	return &input{n: n, edges: edges}, nil
}

func pick(quick bool, small, full int64) int64 {
	if quick {
		return small
	}
	return full
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
