// Package shared implements a Grappolo-style shared-memory parallel Louvain
// method (Lu, Halappanavar, Kalyanaraman, ParCo 2015) — the comparator the
// paper benchmarks against in Tables I and III — including its published
// heuristics:
//
//   - parallel vertex sweeps with double-buffered community state and the
//     minimum-label rule that suppresses synchronous swap cycles;
//   - optional vertex following, which pre-merges degree-1 vertices into
//     their sole neighbour;
//   - the adaptive Early Termination (ET) heuristic of the paper's §IV-B,
//     with the activity probability P(v,k) = P(v,k−1)·(1−α) and the 2%
//     inactivity cutoff (used for the Table I α sweep).
//
// The OpenMP worker team of the original is a goroutine pool (internal/par).
package shared

import "time"

// InactiveCutoff is the probability below which a vertex is permanently
// labelled inactive for the remainder of the phase (the paper's 2%).
const InactiveCutoff = 0.02

// DefaultTau is the paper's default threshold τ = 10⁻⁶.
const DefaultTau = 1e-6

// Options configures a shared-memory Louvain run.
type Options struct {
	// Threads is the worker-team size (≤0 selects GOMAXPROCS).
	Threads int
	// Tau is the modularity-gain threshold (≤0 selects DefaultTau).
	Tau float64
	// MaxPhases caps phases (0 = unlimited).
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

// PhaseStat records one phase.
type PhaseStat struct {
	Vertices   int64
	Iterations int
	Modularity float64
	// InactiveAtEnd counts vertices labelled inactive when the phase
	// ended (always 0 when Alpha == 0).
	InactiveAtEnd int64
	// Touched counts the ΔQ evaluations of the phase — the vertices its
	// sweeps found active, summed over iterations. It is the work ET saves
	// (core.PhaseStat.TouchedTrajectory, summed).
	Touched int64
}

// Result is the outcome of a shared-memory Louvain run.
type Result struct {
	Comm            []int64 // final community per original vertex, dense labels
	Modularity      float64
	Communities     int64
	Phases          []PhaseStat
	TotalIterations int
	Runtime         time.Duration
}
