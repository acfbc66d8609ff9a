// Package shared is the Grappolo-style shared-memory Louvain method (Lu,
// Halappanavar, Kalyanaraman, ParCo 2015), the comparator of the paper's
// Tables I and III. It is core at one rank, whose Threads-sized worker team
// sweeps the whole graph; those tables call core.RunOnEdges(1, …) directly,
// and Run stays for benchmark/'s per-layer pass.
package shared

import (
	"distlouvain/internal/core"
	"distlouvain/internal/graph"
)

// Options configures a shared-memory Louvain run.
type Options struct {
	// Threads is the worker-team size (≤0 selects 1).
	Threads int
}

// Run executes the multi-phase shared-memory Louvain method: core on one
// in-process rank with a worker team of opt.Threads.
func Run(g *graph.CSR, opt Options) (*core.Result, error) {
	return core.RunOnEdges(1, g.N, g.UndirectedEdges(), core.Config{Threads: opt.Threads})
}
