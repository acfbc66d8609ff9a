// Package core implements the paper's primary contribution: the distributed
// memory parallel Louvain method (Algorithms 2–4) with its performance
// heuristics — Threshold Cycling (TC), adaptive Early Termination (ET) and
// ET with the global inactive-count exit (ETC) — plus the distributed graph
// reconstruction of Fig. 1.
//
// Every rank executes Run as an SPMD program over an mpi.Comm; all
// convergence decisions derive from allreduced quantities, so ranks always
// agree on control flow.
package core

import (
	"errors"
	"fmt"
	"time"

	"distlouvain/internal/frontier"
	"distlouvain/internal/mpi"
	"distlouvain/internal/obsv"
)

// DefaultTau is the paper's default threshold τ = 10⁻⁶.
const DefaultTau = 1e-6

// InactiveCutoff is the activity probability below which a vertex is
// permanently labelled inactive for the rest of the phase (the paper's 2%).
const InactiveCutoff = 0.02

// DefaultETCExit is the global inactive fraction at which ETC terminates a
// phase (the paper's 90%).
const DefaultETCExit = 0.90

// Config selects the algorithm variant and its parameters.
type Config struct {
	// Tau is the τ threshold for both iteration- and phase-level
	// convergence (≤0 selects DefaultTau).
	Tau float64

	// TauSchedule enables Threshold Cycling: phase k runs with
	// TauSchedule[k mod len]. When the run converges while the schedule
	// is above Tau, one extra phase is forced at Tau (the paper's "run
	// once more with the lowest threshold"). Empty disables cycling.
	TauSchedule []float64

	// Alpha is the ET decay rate in [0,1]; 0 disables early termination.
	Alpha float64

	// ETC exits the phase when the global inactive fraction an iteration
	// starts with reaches DefaultETCExit. The count rides the modularity
	// allreduce of the iteration before, so ETC adds no communication.
	ETC bool

	// Threads is the intra-rank worker team size (the OpenMP threads of
	// the paper's MPI+OpenMP runs); ≤0 selects 1.
	Threads int

	// MaxPhases caps phases (0 = 64, a safety net far above practical
	// convergence).
	MaxPhases int
	// MaxIterations caps iterations per phase (0 = unlimited).
	MaxIterations int

	// Seed drives the ET coin flips (identical results for identical
	// seeds regardless of rank count or scheduling).
	Seed uint64

	// GatherOutput assembles the full community assignment at rank 0
	// (Result.GlobalComm), as the paper's quality-assessment mode does.
	GatherOutput bool

	// CheckpointDir enables phase-boundary snapshots: after coarsening,
	// every rank writes its state (coarse CSR + ghost tables, cumulative
	// original-vertex assignment, driver position, phase history) under
	// this directory and rank 0 commits a manifest once all ranks have
	// landed. Resume continues such a run — at the same or a different
	// rank count. Empty disables checkpointing.
	CheckpointDir string
	// CheckpointEvery snapshots after every k-th completed phase (≤0
	// selects 1, i.e. every phase). Later phases run on ever-smaller
	// coarse graphs, so frequent snapshots get cheaper as the run ages.
	CheckpointEvery int
	// CheckpointKeep retains the snapshots of the last K committed phases
	// (≤0 selects 2); older phase files are garbage-collected after each
	// commit so long supervised runs don't fill the disk. The
	// manifest-referenced phase is never deleted.
	CheckpointKeep int

	// Progress, when set, is invoked synchronously by this rank's driver
	// at run milestones: phase start, each completed iteration, each
	// committed checkpoint, and run completion. Supervisors use it to emit
	// liveness beacons; a hook that blocks stalls the rank (the chaos
	// tests exploit exactly that). It never affects the trajectory and is
	// excluded from Fingerprint.
	Progress func(ProgressEvent)

	// Tracer, when set, records this rank's phase/iteration/step spans.
	// Attach the same tracer to the rank's communicator (Comm.SetTracer) so
	// collective spans nest under the driver's. nil disables tracing at zero
	// cost. Like Progress, it never affects the trajectory and is excluded
	// from Fingerprint.
	Tracer *obsv.Tracer

	// Interrupted, when set, is polled at every phase boundary and its
	// verdict is combined world-wide (allreduce max): when any rank
	// reports true, every rank writes a final checkpoint (if CheckpointDir
	// is set) and returns an error wrapping ErrInterrupted. Either all
	// ranks of a world set this hook or none — the poll is a collective.
	Interrupted func() bool

	// oracle selects the differential oracles of the in-package tests and
	// of KernelBench; nothing else assigns it, so every run a caller can
	// request is frontier-driven, on the shipped kernels, with the set's
	// representation chosen from its size. Excluded from Fingerprint by
	// construction (Fingerprint lists its fields explicitly): every oracle
	// reproduces the shipped trajectory bit for bit.
	oracle oracle
}

// oracle names the reference paths a test can route a run through.
type oracle struct {
	refKernels bool         // map-based ΔQ sweep and coarse-arc kernels (kernels_ref.go)
	fullScan   bool         // offer every local vertex to every sweep: no frontier
	rep        frontier.Rep // pin the frontier's representation (RepAuto: by size)
	// afterFetch, when set, is installed by Run as every phase's
	// phaseState.afterFetch: the property suite's per-iteration probe.
	afterFetch func(*phaseState) error
}

func (c *Config) fill() {
	if c.Tau <= 0 {
		c.Tau = DefaultTau
	}
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.MaxPhases <= 0 {
		c.MaxPhases = 64
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.CheckpointKeep <= 0 {
		c.CheckpointKeep = 2
	}
}

// progress invokes the Progress hook when one is installed.
func (c *Config) progress(ev ProgressEvent) {
	if c.Progress != nil {
		c.Progress(ev)
	}
}

// PaperTauSchedule is the Fig. 2 cycling schedule: τ = 10⁻³ for 3 phases,
// 10⁻⁴ for 4, 10⁻⁵ for 3, 10⁻⁶ for 3, then repeat.
func PaperTauSchedule() []float64 {
	s := make([]float64, 0, 13)
	for i := 0; i < 3; i++ {
		s = append(s, 1e-3)
	}
	for i := 0; i < 4; i++ {
		s = append(s, 1e-4)
	}
	for i := 0; i < 3; i++ {
		s = append(s, 1e-5)
	}
	for i := 0; i < 3; i++ {
		s = append(s, 1e-6)
	}
	return s
}

// Variant constructors matching the paper's experiment legend.

// Baseline is Algorithm 2 without heuristics.
func Baseline() Config { return Config{} }

// ThresholdCycling enables the Fig. 2 τ schedule.
func ThresholdCycling() Config { return Config{TauSchedule: PaperTauSchedule()} }

// ET enables adaptive early termination with decay α.
func ET(alpha float64) Config { return Config{Alpha: alpha} }

// ETC enables early termination plus the global inactive-count exit.
func ETC(alpha float64) Config { return Config{Alpha: alpha, ETC: true} }

// ETWithTC combines ET(α) and Threshold Cycling (Table VI).
func ETWithTC(alpha float64) Config {
	return Config{Alpha: alpha, TauSchedule: PaperTauSchedule()}
}

// ParseVariant is the configuration a variant name selects: baseline, tc
// (Threshold Cycling), et, etc or ettc (ET+TC). The last three take the decay
// alpha, which must lie in (0, 1]; the first two ignore it.
func ParseVariant(name string, alpha float64) (Config, error) {
	var cfg Config
	switch name {
	case "baseline":
		return Baseline(), nil
	case "tc":
		return ThresholdCycling(), nil
	case "et":
		cfg = ET(alpha)
	case "etc":
		cfg = ETC(alpha)
	case "ettc":
		cfg = ETWithTC(alpha)
	default:
		return Config{}, fmt.Errorf("unknown variant %q (want baseline, tc, et, etc or ettc)", name)
	}
	if !(alpha > 0 && alpha <= 1) {
		return Config{}, fmt.Errorf("variant %s needs 0 < alpha <= 1 (got %g)", name, alpha)
	}
	return cfg, nil
}

// VariantName renders the configuration in the paper's legend style.
func (c Config) VariantName() string {
	switch {
	case c.Alpha > 0 && c.ETC:
		return fmt.Sprintf("ETC(%.2g)", c.Alpha)
	case c.Alpha > 0 && len(c.TauSchedule) > 0:
		return fmt.Sprintf("ET(%.2g)+TC", c.Alpha)
	case c.Alpha > 0:
		return fmt.Sprintf("ET(%.2g)", c.Alpha)
	case len(c.TauSchedule) > 0:
		return "Threshold Cycling"
	default:
		return "Baseline"
	}
}

// ErrInterrupted is wrapped by the error Run/Resume return when the
// Interrupted hook stopped the run at a phase boundary. The run state is
// intact on disk (a final checkpoint was committed when CheckpointDir is
// set), so callers classify it as retryable: `dlouvain -resume` or a
// supervisor continues exactly where the run stopped.
var ErrInterrupted = errors.New("core: run interrupted at phase boundary")

// ProgressKind labels one Progress hook invocation.
type ProgressKind string

// Progress milestones, in the order a run emits them.
const (
	ProgressPhaseStart ProgressKind = "phase-start" // a phase's iteration loop is about to run
	ProgressIteration  ProgressKind = "iteration"   // one Louvain iteration completed
	ProgressCheckpoint ProgressKind = "checkpoint"  // a phase snapshot committed world-wide
	ProgressDone       ProgressKind = "done"        // the run finished; Result is final
)

// ProgressEvent is one milestone report from a rank's driver. All fields are
// globally agreed quantities (every rank emits the same sequence), so a
// supervisor can correlate beacons across the world.
type ProgressEvent struct {
	Kind       ProgressKind
	Phase      int     // phase index the event belongs to
	Iteration  int     // 1-based within the phase; 0 for non-iteration events
	Modularity float64 // latest globally agreed modularity (−∞ before the first phase ends)
	Vertices   int64   // global coarse-graph size at the phase start
	// Communities is the final global community count, populated only on
	// ProgressDone (0 on every other milestone) so streaming consumers can
	// report the headline result without waiting for a separate fetch.
	Communities int64
}

// ExitReason explains why a phase's iteration loop ended.
type ExitReason string

// Phase exit reasons.
const (
	ExitTau     ExitReason = "tau"     // modularity gain fell to τ
	ExitETC     ExitReason = "etc"     // ≥DefaultETCExit of vertices inactive
	ExitMaxIter ExitReason = "maxiter" // MaxIterations reached
)

// PhaseStat records one phase of the distributed run; the QTrajectory and
// iteration counts regenerate the paper's Figs. 5–6.
type PhaseStat struct {
	Vertices    int64     // global graph size at phase start
	Iterations  int       // Louvain iterations executed
	Modularity  float64   // modularity at phase end
	Tau         float64   // threshold this phase ran with
	QTrajectory []float64 // modularity after each iteration
	// MovesTrajectory records the global number of vertices that changed
	// community in each iteration — the quantity whose rapid decay
	// motivates the ET heuristic (§IV-B).
	MovesTrajectory []int64
	// ReturnsTrajectory records how many of each iteration's moves put a
	// vertex back into the community it had left one iteration earlier, and
	// DampedFrom the first iteration (1-based; 0: none) the return rule
	// applied to — the one after the first whose returns were at least half
	// of its moves. A phase whose returns track its moves is flip-flopping,
	// not converging (DESIGN §8). Like the two below, not checkpointed.
	ReturnsTrajectory []int64
	DampedFrom        int
	// TouchedTrajectory records the global number of vertices the sweep
	// actually evaluated in each iteration; FrontierTrajectory the global
	// active-set size offered to the sweep (LocalN sums under the full scan).
	// Their ratio per iteration is the work the frontier machinery saved on
	// top of ET's probability gate.
	TouchedTrajectory  []int64
	FrontierTrajectory []int64
	// InactiveFrac is the global inactive fraction the phase's last
	// iteration started with, under ET and ETC alike; when ETC's exit ends
	// the phase, that is the iteration the exit skipped. 0 without ET.
	InactiveFrac float64
	Exit         ExitReason // why the phase ended
}

// StepTimes aggregates where the run spent its time, mirroring the paper's
// §V-A HPCToolkit breakdown (ghost/community communication, the modularity
// allreduce, local compute, and graph rebuilding).
type StepTimes struct {
	GhostComm     time.Duration // ghost vertex exchange (iteration step i)
	CommunityComm time.Duration // community info fetch + update push (steps ii–iii)
	Compute       time.Duration // local ΔQ sweeps
	Allreduce     time.Duration // modularity / control reductions
	Rebuild       time.Duration // distributed coarsening
	Total         time.Duration
}

// Result is the per-rank outcome of a distributed Louvain run.
type Result struct {
	// LocalComm holds the final community label of each vertex this rank
	// owned in the ORIGINAL graph (index = global original ID − LocalBase).
	LocalComm []int64
	// LocalBase is the first original vertex this rank owns.
	LocalBase int64
	// GlobalComm is the complete assignment, present at rank 0 when
	// Config.GatherOutput is set (nil elsewhere).
	GlobalComm []int64

	Modularity      float64
	Communities     int64 // global community count
	Phases          []PhaseStat
	TotalIterations int
	Runtime         time.Duration
	Steps           StepTimes
	Traffic         mpi.Snapshot // this rank's traffic during the run
}
