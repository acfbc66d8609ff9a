// Package shared is the Grappolo-style shared-memory Louvain method (Lu,
// Halappanavar, Kalyanaraman, ParCo 2015) — the comparator the paper
// benchmarks against in Tables I and III. It is core at one rank: a rank's
// Threads-sized worker team sweeps the whole graph, with core's move rules,
// frontier and adaptive Early Termination (the Table I α sweep). What it adds
// is Grappolo's vertex following, a pre-merge of degree-1 vertices into their
// sole neighbour before the first phase.
//
// The OpenMP worker team of the original is a goroutine pool (internal/par).
package shared

// Options configures a shared-memory Louvain run.
type Options struct {
	// Threads is the worker-team size (≤0 selects GOMAXPROCS).
	Threads int
	// Tau is the modularity-gain threshold (≤0 selects core.DefaultTau).
	Tau float64
	// MaxPhases caps phases (0 = core's default).
	MaxPhases int
	// MaxIterations caps iterations per phase (0 = unlimited).
	MaxIterations int
	// Alpha is the ET decay rate in [0,1]; 0 disables early termination
	// (every vertex stays active, the paper's baseline row of Table I).
	Alpha float64
	// VertexFollowing pre-merges degree-1 vertices into their neighbour
	// before the first phase.
	VertexFollowing bool
	// Seed drives the ET coin flips.
	Seed uint64
}
