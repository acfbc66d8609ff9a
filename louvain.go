// Package distlouvain is a Go implementation of the distributed-memory
// parallel Louvain method for graph community detection of Ghosh et al.
// (IPDPS 2018), together with the serial implementation it is evaluated
// against, the synthetic workload generators used in the paper's
// experiments, and ground-truth quality metrics. The shared-memory
// (Grappolo-style) comparator is Detect at one rank with a worker team of
// Threads.
//
// The top-level API runs the distributed algorithm on in-process ranks —
// goroutines exchanging serialized messages through the package's
// message-passing runtime, the single-binary analogue of "mpirun -np R".
// For genuinely multi-process execution over TCP, see cmd/dlouvain.
//
// Quick start:
//
//	edges := []distlouvain.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}}
//	res, err := distlouvain.Detect(3, edges, distlouvain.Options{Ranks: 2})
//	if err != nil { ... }
//	fmt.Println(res.NumCommunities, res.Modularity)
package distlouvain

import (
	"fmt"
	"time"

	"distlouvain/internal/core"
	"distlouvain/internal/graph"
	"distlouvain/internal/quality"
	"distlouvain/internal/seq"
)

// Edge is one undirected input edge with endpoints U, V and weight W.
type Edge = graph.RawEdge

// Variant selects the distributed algorithm configuration, matching the
// paper's experiment legend.
type Variant int

// Algorithm variants (§IV-B / §V of the paper).
const (
	// Baseline is Algorithm 2 without heuristics.
	Baseline Variant = iota
	// ThresholdCycling cycles the convergence threshold τ across phases
	// (Fig. 2 schedule).
	ThresholdCycling
	// EarlyTermination probabilistically deactivates vertices that have
	// stopped moving (requires Alpha).
	EarlyTermination
	// EarlyTerminationC adds the global inactive-count exit at 90%
	// (requires Alpha).
	EarlyTerminationC
	// EarlyTerminationTC combines EarlyTermination with ThresholdCycling.
	EarlyTerminationTC
)

// String renders the variant in the paper's legend style.
func (v Variant) String() string {
	switch v {
	case Baseline:
		return "Baseline"
	case ThresholdCycling:
		return "Threshold Cycling"
	case EarlyTermination:
		return "ET"
	case EarlyTerminationC:
		return "ETC"
	case EarlyTerminationTC:
		return "ET+TC"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Options configures Detect.
type Options struct {
	// Ranks is the number of simulated distributed-memory processes
	// (goroutine ranks); ≤0 selects 1.
	Ranks int
	// Threads is the worker-team size inside each rank (the OpenMP
	// threads of the paper's MPI+OpenMP runs); ≤0 selects 1.
	Threads int
	// Variant picks the heuristic configuration.
	Variant Variant
	// Alpha is the early-termination decay in [0,1]; required (>0) for
	// the EarlyTermination* variants. The paper evaluates 0.25 and 0.75.
	Alpha float64
	// Tau is the convergence threshold τ (≤0 selects 1e-6).
	Tau float64
	// Seed drives the early-termination coin flips; runs with equal
	// seeds and options are deterministic.
	Seed uint64
	// MaxPhases and MaxIterations cap work (0 = defaults).
	MaxPhases     int
	MaxIterations int
}

// Phase describes one Louvain phase of a run.
type Phase struct {
	// Vertices is the (coarsened) graph size the phase ran on.
	Vertices int64
	// Iterations is the number of Louvain iterations executed.
	Iterations int
	// Modularity is the phase-final modularity.
	Modularity float64
	// QTrajectory records modularity after every iteration.
	QTrajectory []float64
	// MovesTrajectory records how many vertices changed community in each
	// iteration (the decaying migration rate that motivates ET).
	MovesTrajectory []int64
	// Tau is the threshold the phase ran with (varies under cycling).
	Tau float64
	// InactiveFrac is the global fraction of inactive vertices the phase's
	// last iteration started with, or, after ETC's exit, the iteration it
	// skipped (early-termination variants).
	InactiveFrac float64
	// Exit tells why the phase ended: "tau", "etc" or "maxiter".
	Exit string
}

// Result is the outcome of a community detection run.
type Result struct {
	// Communities assigns a dense label in [0, NumCommunities) to every
	// vertex.
	Communities []int64
	// NumCommunities is the number of detected communities.
	NumCommunities int64
	// Modularity is the exact Newman modularity of the assignment.
	Modularity float64
	// Phases describes each executed phase.
	Phases []Phase
	// TotalIterations sums Louvain iterations across phases.
	TotalIterations int
	// Runtime is the end-to-end wall time.
	Runtime time.Duration
	// BytesCommunicated counts payload bytes rank 0 sent during a
	// distributed run (0 for serial runs).
	BytesCommunicated int64
}

func (o Options) toConfig() (core.Config, error) {
	var cfg core.Config
	switch o.Variant {
	case Baseline:
		cfg = core.Baseline()
	case ThresholdCycling:
		cfg = core.ThresholdCycling()
	case EarlyTermination:
		if o.Alpha <= 0 {
			return cfg, fmt.Errorf("distlouvain: EarlyTermination requires Alpha > 0")
		}
		cfg = core.ET(o.Alpha)
	case EarlyTerminationC:
		if o.Alpha <= 0 {
			return cfg, fmt.Errorf("distlouvain: EarlyTerminationC requires Alpha > 0")
		}
		cfg = core.ETC(o.Alpha)
	case EarlyTerminationTC:
		if o.Alpha <= 0 {
			return cfg, fmt.Errorf("distlouvain: EarlyTerminationTC requires Alpha > 0")
		}
		cfg = core.ETWithTC(o.Alpha)
	default:
		return cfg, fmt.Errorf("distlouvain: unknown variant %d", int(o.Variant))
	}
	cfg.Tau = o.Tau
	cfg.Threads = o.Threads
	cfg.Seed = o.Seed
	cfg.MaxPhases = o.MaxPhases
	cfg.MaxIterations = o.MaxIterations
	return cfg, nil
}

// Detect runs the distributed Louvain method over n vertices and the given
// undirected edges. Duplicate edges merge by weight; self loops are
// allowed. Vertex IDs must lie in [0, n). Weights must be finite and ≥ 0;
// unless they are integers whose total 2m is below 2⁵³, they are scaled by a
// power of two and rounded (Certificate.Scale), which leaves Q and every
// decision as they are up to that rounding.
func Detect(n int64, edges []Edge, opt Options) (*Result, error) {
	if n < 0 {
		return nil, fmt.Errorf("distlouvain: negative vertex count")
	}
	ranks := opt.Ranks
	if ranks <= 0 {
		ranks = 1
	}
	cfg, err := opt.toConfig()
	if err != nil {
		return nil, err
	}
	res, err := core.RunOnEdges(ranks, n, edges, cfg)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Communities:       res.GlobalComm,
		NumCommunities:    res.Communities,
		Modularity:        res.Modularity,
		TotalIterations:   res.TotalIterations,
		Runtime:           res.Runtime,
		BytesCommunicated: res.Traffic.TotalBytes(),
	}
	for _, ph := range res.Phases {
		out.Phases = append(out.Phases, Phase{
			Vertices:        ph.Vertices,
			Iterations:      ph.Iterations,
			Modularity:      ph.Modularity,
			QTrajectory:     ph.QTrajectory,
			MovesTrajectory: ph.MovesTrajectory,
			Tau:             ph.Tau,
			InactiveFrac:    ph.InactiveFrac,
			Exit:            string(ph.Exit),
		})
	}
	return out, nil
}

// DetectSerial runs the reference serial Louvain method (Algorithm 1).
func DetectSerial(n int64, edges []Edge, tau float64) (*Result, error) {
	if n < 0 {
		return nil, fmt.Errorf("distlouvain: negative vertex count")
	}
	start := time.Now()
	g, _, err := graph.FromRawEdgesScaled(n, edges)
	if err != nil {
		return nil, err
	}
	r := seq.Run(g, seq.Options{Tau: tau})
	out := &Result{
		Communities:     r.Comm,
		NumCommunities:  r.Communities,
		Modularity:      r.Modularity,
		TotalIterations: r.TotalIterations,
		Runtime:         time.Since(start),
	}
	for _, ph := range r.Phases {
		out.Phases = append(out.Phases, Phase{Vertices: ph.Vertices, Iterations: ph.Iterations, Modularity: ph.Modularity})
	}
	return out, nil
}

// Certificate is what Certify establishes about an assignment: its Newman
// modularity (Equation 2 of the paper), the exponent s by which the weights
// were scaled before they were rounded to integers and summed exactly (0: not
// scaled), the community count,
// whether the labels are dense, and how many communities fall apart into
// pieces.
type Certificate = seq.Certificate

// Certify checks an assignment over the given graph in O(n) memory: one pass
// over the edges when their weights are integers, two otherwise.
func Certify(n int64, edges []Edge, comm []int64) (Certificate, error) {
	return seq.Certify(n, graph.Edges(edges), comm)
}

// Check certifies res's labels over the graph it was detected on and fails
// unless they are dense, as many as res reports, and give its Modularity bit
// for bit: every input's weights are made integers as they enter (the same
// scale 2^s for Detect and Check), so both sum them exactly.
func Check(n int64, edges []Edge, res *Result) (Certificate, error) {
	return seq.Check(n, graph.Edges(edges), res.Communities, res.Modularity, res.NumCommunities)
}

// Score is the ground-truth comparison result: precision, recall, F-score
// (HPEC'17 methodology) and normalized mutual information.
type Score = quality.Score

// CompareToGroundTruth scores a detected assignment against ground truth.
func CompareToGroundTruth(detected, truth []int64) (Score, error) {
	return quality.Compare(detected, truth)
}
