package shared

import (
	"time"

	"distlouvain/internal/core"
	"distlouvain/internal/graph"
	"distlouvain/internal/par"
)

// Run executes the multi-phase shared-memory Louvain method: core.Run on one
// in-process rank with a worker team of opt.Threads. With VertexFollowing,
// core runs on the graph with followed vertices merged (premerge), so
// Phases[0].Vertices counts the merged graph. GlobalComm and LocalComm both
// label every vertex of g; Runtime includes building the rank's graph.
func Run(g *graph.CSR, opt Options) (*core.Result, error) {
	start := time.Now()
	cfg := core.Config{
		Tau:           opt.Tau,
		Alpha:         opt.Alpha,
		Threads:       opt.Threads,
		MaxPhases:     opt.MaxPhases,
		MaxIterations: opt.MaxIterations,
		Seed:          opt.Seed,
	}
	if cfg.Threads <= 0 {
		cfg.Threads = par.DefaultThreads()
	}
	n, edges := g.N, g.UndirectedEdges()
	var to []int64
	if opt.VertexFollowing {
		n, to = premerge(g, edges)
	}
	res, err := core.RunOnEdges(1, n, edges, cfg)
	if err != nil {
		return nil, err
	}
	if to != nil {
		comm := make([]int64, g.N)
		for v, m := range to {
			comm[v] = res.GlobalComm[m]
		}
		res.GlobalComm, res.LocalComm = comm, comm
	}
	res.Runtime = time.Since(start)
	return res, nil
}

// premerge rewrites g's undirected edge list in place onto seq.Coarsen(g,
// FollowVertices(g)) without building that CSR, and returns the merged vertex
// count and to[v], v's merged vertex. A vertex that follows no one stands for
// its merged vertex (every vertex followed is one), numbered in vertex order;
// an edge inside a merged vertex becomes a self loop of double weight, its
// two arcs under package graph's convention.
func premerge(g *graph.CSR, edges []graph.RawEdge) (int64, []int64) {
	follow := FollowVertices(g)
	to := make([]int64, g.N)
	var n int64
	for v, c := range follow {
		if c == int64(v) {
			to[v] = n
			n++
		}
	}
	for v, c := range follow {
		to[v] = to[c]
	}
	for i, e := range edges {
		u, v := to[e.U], to[e.V]
		if u == v && e.U != e.V {
			e.W *= 2
		}
		edges[i] = graph.RawEdge{U: u, V: v, W: e.W}
	}
	return n, to
}
