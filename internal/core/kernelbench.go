package core

import (
	"fmt"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
)

// KernelBench drives the two hot kernels — the ΔQ sweep and the Step-5
// coarse-arc aggregation — in isolation on a single-rank in-process world,
// so go-test benchmarks and the paperbench baseline can measure ns/op and
// allocs/op without collective noise. useRef selects the map reference
// kernels (kernels_ref.go); otherwise the shipped kernels run: the
// slot-addressed sweep and the coarse-arc aggregation grouped by source
// community.
//
// Construction warms the state up with two full sweep+apply iterations so
// the community structure is non-trivial (coarse arcs actually merge) and
// the phase-lived buffers have reached steady-state capacity. After that,
// Sweep and CoarseArcs are read-only with respect to the community state:
// repeated calls do identical work.
type KernelBench struct {
	world   *mpi.InprocWorld
	st      *phaseState
	bySlot  []int64 // the new community of every live slot, as renumber would give it
	coarseN int64   // communities that survive: the coarse graph's vertex count
	steps   StepTimes
}

// NewKernelBench builds the bench state for an n-vertex edge list.
func NewKernelBench(n int64, edges []graph.RawEdge, threads int, useRef bool) (*KernelBench, error) {
	world, err := mpi.NewInprocWorld(1)
	if err != nil {
		return nil, err
	}
	kb := &KernelBench{world: world}
	c := mpi.NewComm(world.Endpoint(0))
	dg, err := dgraph.Build(c, n, edges, nil)
	if err != nil {
		world.Close()
		return nil, err
	}
	cfg := &Config{Threads: threads, oracle: oracle{refKernels: useRef}}
	cfg.fill()
	st, err := newPhaseState(dg, cfg, 0, &kb.steps)
	if err != nil {
		world.Close()
		return nil, err
	}
	kb.st = st
	for it := 1; it <= 2; it++ {
		if err := st.fetchCommunityInfo(); err != nil {
			world.Close()
			return nil, fmt.Errorf("kernelbench warm-up: %w", err)
		}
		moves := kb.fullSweep(it)
		if err := st.pushDeltas(st.stageMoves(moves), moves); err != nil {
			world.Close()
			return nil, fmt.Errorf("kernelbench warm-up: %w", err)
		}
		if err := st.exchangeGhostComm(); err != nil {
			world.Close()
			return nil, fmt.Errorf("kernelbench warm-up: %w", err)
		}
	}
	// Single-rank renumbering, exactly as rebuild Steps 1–4 produce it: one
	// rank has no non-owned community, so its surviving communities in
	// ascending ID order, renumbered from 0, are all of it.
	kb.bySlot, kb.coarseN = st.renumberOwned()
	if err := st.fetchCommunityInfo(); err != nil {
		world.Close()
		return nil, fmt.Errorf("kernelbench warm-up: %w", err)
	}
	return kb, nil
}

// fullSweep sweeps every local vertex: the frontier (empty between
// iterations — the driver's buildFrontier fills it) is re-seeded with the
// whole vertex set first.
func (kb *KernelBench) fullSweep(iter int) []move {
	if fr := kb.st.fr; fr != nil {
		fr.cur.Fill()
		fr.scanDense = fr.cur.Dense()
	}
	return kb.st.sweep(iter)
}

// Sweep runs one full ΔQ sweep over every local vertex without applying the
// chosen moves, and returns how many moves were proposed.
func (kb *KernelBench) Sweep() int {
	return len(kb.fullSweep(1))
}

// CoarseArcs runs the Step-5 coarse-arc aggregation over the current
// community assignment — into the frames of a shuffle that is never
// exchanged — and returns the number of distinct coarse arcs.
func (kb *KernelBench) CoarseArcs() int {
	if kb.st.cfg.oracle.refKernels {
		return len(kb.st.coarseArcsMap(kb.bySlot))
	}
	sh := dgraph.NewShuffle(kb.st.dg.Comm, kb.coarseN, kb.st.cfg.Threads, true)
	return kb.st.coarseArcs(kb.bySlot, sh)
}

// Close releases the in-process world.
func (kb *KernelBench) Close() { kb.world.Close() }
