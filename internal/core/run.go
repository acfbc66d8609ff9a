package core

import (
	"fmt"
	"math"
	"time"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
	"distlouvain/internal/obsv"
)

// runState is the complete driver position of a multi-phase run between
// phases: exactly what a phase-boundary checkpoint captures and what Resume
// reconstructs. res.LocalComm doubles as the cumulative original-vertex →
// current-community mapping (origComm); it is remapped every rebuild.
type runState struct {
	comm *mpi.Comm
	cfg  *Config

	cur   *dgraph.DistGraph // current (coarsened) graph
	origN int64             // vertex count of the original input graph
	res   *Result           // accumulating result; LocalComm is origComm

	phase       int     // next phase index to execute
	prevQ       float64 // modularity after the last completed phase
	forcedFinal bool    // TC: the forced lowest-threshold pass has been entered

	steps *StepTimes
}

// Run executes the multi-phase distributed Louvain method (Algorithm 2) on
// the rank's share of the distributed graph. Every rank of dg.Comm must
// call Run with an identical Config.
//
// Run takes ownership of dg: each phase's coarse graph is assembled into the
// arrays of the graph it replaces, the input's included, so once Run is
// called the caller must not read dg's arrays (Index, Edges, Slot, K,
// SelfLoop, Ghosts, GhostOwner) again. Its scalar fields stay as they were.
//
// The returned assignment labels are dense global community IDs in
// [0, Communities); Result.LocalComm indexes them by original local vertex.
func Run(dg *dgraph.DistGraph, cfg Config) (*Result, error) {
	cfg.fill()
	res := &Result{
		LocalBase: dg.Base,
		LocalComm: make([]int64, dg.LocalN),
	}
	// origComm starts as the identity: every original vertex is its own
	// community in the phase-0 graph.
	for i := range res.LocalComm {
		res.LocalComm[i] = dg.Base + int64(i)
	}
	rs := &runState{
		comm:  dg.Comm,
		cfg:   &cfg,
		cur:   dg,
		origN: dg.GlobalN,
		res:   res,
		prevQ: math.Inf(-1),
		steps: &StepTimes{},
	}
	return rs.runLoop()
}

// runLoop drives phases from rs.phase until convergence. It is the shared
// tail of Run (which starts at phase 0 on the input graph) and Resume
// (which starts mid-run from checkpointed state).
func (rs *runState) runLoop() (*Result, error) {
	start := time.Now()
	cfg := rs.cfg
	c := rs.comm
	res := rs.res
	trafficStart := c.Stats().Snapshot()
	origComm := res.LocalComm
	finalTau := cfg.Tau

	// The run span closes only on success; on an error return it stays
	// open, so the tracer's Path/ring tail still names where the run died.
	tr := cfg.Tracer
	rsp := tr.Begin(obsv.KindRun, "run")

	// One phase state for the whole run: each phase re-slices the arrays the
	// one before left (reset).
	st := &phaseState{cfg: cfg, steps: rs.steps}
	ck := newCheckpointer(rs)
	defer ck.close()
	for ; rs.phase < cfg.MaxPhases; rs.phase++ {
		phase := rs.phase
		tau := finalTau
		if len(cfg.TauSchedule) > 0 && !rs.forcedFinal {
			tau = cfg.TauSchedule[phase%len(cfg.TauSchedule)]
		}
		tr.SetPos(phase, 0)
		psp := tr.Begin(obsv.KindPhase, "phase")
		cfg.progress(ProgressEvent{Kind: ProgressPhaseStart, Phase: phase, Modularity: rs.prevQ, Vertices: rs.cur.GlobalN})

		if err := st.reset(rs.cur, phase); err != nil {
			return nil, fmt.Errorf("phase %d setup: %w", phase, err)
		}
		if probe := cfg.oracle.afterFetch; probe != nil {
			st.afterFetch = func() error { return probe(st) }
		}
		stat, err := st.iterate(tau)
		if err != nil {
			return nil, fmt.Errorf("phase %d: %w", phase, err)
		}
		res.Phases = append(res.Phases, stat)
		res.TotalIterations += stat.Iterations

		// A phase that ends below the one before — a synchronous sweep's joint
		// moves can lose on a small coarse graph — is discarded: no flatten, no
		// rebuild, and the previous phase's assignment, graph and Q stand. Such
		// a phase ends the run (or, under a cycled threshold, sends it into the
		// forced final pass from the kept state); res.Phases still lists it.
		// Phase 0 is never discarded (prevQ = −∞), and the decision derives
		// from allreduced values, so every rank takes it together.
		gain := stat.Modularity - rs.prevQ
		noCompaction := false
		if gain >= 0 {
			// Rebuild even when this is the last phase: it densifies labels
			// and yields the exact final modularity.
			ndg, bySlot, err := st.rebuild()
			if err != nil {
				return nil, fmt.Errorf("phase %d rebuild: %w", phase, err)
			}
			// Flatten: each original vertex currently tracks a meta-vertex of
			// this phase's graph; advance it to the coarse vertex that
			// meta-vertex's community became (serial equivalent:
			// new(comm[res.Comm[v]])).
			fsp := tr.Begin(obsv.KindP2P, "flatten")
			if err := st.flatten(bySlot, origComm); err != nil {
				return nil, fmt.Errorf("phase %d assignment flattening: %w", phase, err)
			}
			fsp.End()
			res.Communities = ndg.GlobalN
			noCompaction = ndg.GlobalN == rs.cur.GlobalN
			rs.cur = ndg
			rs.prevQ = stat.Modularity
		}

		stop := false
		if gain <= finalTau {
			if len(cfg.TauSchedule) > 0 && tau > finalTau && !rs.forcedFinal {
				// Converged under a cycled (coarser) threshold: force one
				// more pass at the lowest threshold to secure quality
				// (§V-C a).
				rs.forcedFinal = true
			} else {
				stop = true
			}
		} else if stat.Exit != ExitETC && noCompaction {
			// ETC terminated the phase by inactivity rather than τ; give
			// the next phase a chance even without compaction. Otherwise a
			// non-compacting phase means a fixed point.
			stop = true
		}
		if stop {
			psp.End()
			break
		}

		// Interrupt poll: a collective decision (allreduce max of the
		// per-rank hook verdicts), so every rank stops at the same phase
		// boundary. A stop forces a final checkpoint regardless of the
		// CheckpointEvery schedule — the whole point is resuming later.
		if cfg.Interrupted != nil {
			var local int64
			if cfg.Interrupted() {
				local = 1
			}
			flagged, err := c.AllreduceInt64(local, mpi.OpMax)
			if err != nil {
				return nil, fmt.Errorf("phase %d interrupt poll: %w", phase, err)
			}
			if flagged != 0 {
				saved := "no checkpoint directory configured"
				if ck != nil {
					if err := ck.commitNow(); err != nil {
						return nil, fmt.Errorf("phase %d final checkpoint: %w", phase, err)
					}
					saved = "checkpoint committed"
				}
				// Returning ends this rank's part in the world, and a launcher
				// may tear the world down as soon as one rank has returned
				// (mpi.Run does). No rank leaves a barrier before every rank
				// has entered it, i.e. has left the collectives above — so
				// nobody's allreduce or commit fence can be cut short by a
				// faster peer's exit. The barrier itself can be, by a peer
				// that has already passed it, which changes nothing: the
				// decision and the commit are both made. Its error is dropped
				// for that reason.
				_ = c.Barrier()
				return nil, fmt.Errorf("%w after phase %d (%s)", ErrInterrupted, phase, saved)
			}
		}

		// Phase-boundary snapshot: only while the run continues (a run
		// about to terminate delivers its result instead) and only when
		// another phase can actually execute. The previous snapshot, if
		// any, is committed here too.
		if ck != nil && phase+1 < cfg.MaxPhases {
			if err := ck.boundary((phase+1)%cfg.CheckpointEvery == 0); err != nil {
				return nil, fmt.Errorf("phase %d checkpoint: %w", phase, err)
			}
		}
		psp.End()
	}
	// The newest snapshot is committed before the run reports a result.
	if err := ck.flush(); err != nil {
		return nil, fmt.Errorf("final checkpoint commit: %w", err)
	}

	// Exact final modularity from the final coarse graph: with the
	// identity partition, E_c is vertex c's self loop and A_c its degree.
	var eLocal, aSqLocal float64
	for lv := int64(0); lv < rs.cur.LocalN; lv++ {
		eLocal += rs.cur.SelfLoop[lv]
		aSqLocal += rs.cur.K[lv] * rs.cur.K[lv]
	}
	sums, err := c.AllreduceFloat64s([]float64{eLocal, aSqLocal}, mpi.OpSum)
	if err != nil {
		return nil, fmt.Errorf("final modularity allreduce: %w", err)
	}
	if rs.cur.M2 > 0 {
		res.Modularity = sums[0]/rs.cur.M2 - sums[1]/(rs.cur.M2*rs.cur.M2)
	}

	if cfg.GatherOutput {
		gsp := tr.Begin(obsv.KindP2P, "gather-output")
		err := gatherOutput(c, rs.origN, res)
		gsp.End()
		if err != nil {
			return nil, err
		}
	}

	rsp.End()
	res.Runtime = time.Since(start)
	rs.steps.Total = res.Runtime
	res.Steps = *rs.steps
	res.Traffic = c.Stats().Snapshot().Sub(trafficStart)
	cfg.progress(ProgressEvent{Kind: ProgressDone, Phase: rs.phase, Iteration: res.TotalIterations, Modularity: res.Modularity, Vertices: rs.cur.GlobalN, Communities: res.Communities})
	return res, nil
}

// gatherOutput assembles the complete assignment at rank 0 (the paper's
// quality-assessment collectives). globalN is the original graph's vertex
// count. Each rank sends its first vertex and its labels, 8 bytes each; rank 0
// decodes every block straight into the assignment.
func gatherOutput(c *mpi.Comm, globalN int64, res *Result) error {
	payload := make([]byte, 0, 8+8*len(res.LocalComm))
	payload = mpi.AppendInt64(payload, res.LocalBase)
	payload = mpi.AppendInt64s(payload, res.LocalComm)
	blocks, err := c.Gatherv(0, payload)
	if err != nil {
		return err
	}
	if c.Rank() != 0 {
		return nil
	}
	global := make([]int64, globalN)
	for q, b := range blocks {
		d := mpi.NewDecoder(b)
		base, err := d.Int64()
		if err != nil {
			return fmt.Errorf("core: labels of rank %d: %w", q, err)
		}
		k := int64(d.Remaining() / 8)
		if d.Remaining()%8 != 0 || base < 0 || base > globalN-k {
			return fmt.Errorf("core: rank %d sent %d bytes of labels from vertex %d; the graph has %d vertices", q, d.Remaining(), base, globalN)
		}
		dst := global[base : base+k]
		for i := range dst {
			dst[i], _ = d.Int64() // cannot fail: the block holds 8 bytes per entry of dst
		}
	}
	res.GlobalComm = global
	return nil
}

// RunOnEdges is a convenience harness: it splits the given edge list into p
// contiguous chunks, spins up p in-process ranks, builds the distributed
// graph and runs the configured Louvain variant. It returns rank 0's Result
// with GlobalComm populated (GatherOutput is forced on). Tests, examples
// and benchmarks use it as the single-binary analogue of an mpirun
// invocation. The distributed graphs it builds are Run's to recycle and never
// leave it; edges is only read.
func RunOnEdges(p int, n int64, edges []graph.RawEdge, cfg Config) (*Result, error) {
	cfg.GatherOutput = true
	var root *Result
	err := mpi.Run(p, func(c *mpi.Comm) error {
		lo, hi := gio.SegmentRange(int64(len(edges)), c.Rank(), p)
		dg, err := dgraph.Build(c, n, edges[lo:hi], nil)
		if err != nil {
			return err
		}
		res, err := Run(dg, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			root = res
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return root, nil
}
