package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/mpi"
)

// The Step-5 differential harness: coarseArcs (grouped by source community,
// summed through the sweep's rowAcc) against coarseArcsMap (global IDs, Go
// map), on the state real phases leave behind.

// coarsenSeen is what one rank reports from one aggregation: the arcs in
// emission order, the old IDs of the source communities that have members
// here, and which of the aggregator's corner cases the state held.
type coarsenSeen struct {
	arcs    []dgraph.Arc
	sources []int64
	// tailSource: a local vertex sits in a tail slot. tailTarget: a ghost does.
	// deadOwned: an owned community died. absentOwned: an owned community is
	// alive with no member on its owner. allLeft: this rank has vertices and
	// every one of them sits in a community another rank owns.
	tailSource, tailTarget, deadOwned, absentOwned, allLeft bool
}

// sameCoarseArcs holds one rank's emitted arcs to the map oracle's (sorted by
// pair): the same (From, To, W) set, W bit for bit, each pair once.
func sameCoarseArcs(emitted, want []dgraph.Arc) error {
	got := slices.Clone(emitted)
	slices.SortFunc(got, func(a, b dgraph.Arc) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	for i := 1; i < len(got); i++ {
		if got[i].From == got[i-1].From && got[i].To == got[i-1].To {
			return fmt.Errorf("coarse pair (%d,%d) left the rank twice", got[i].From, got[i].To)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d coarse arcs, the map oracle has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].From != want[i].From || got[i].To != want[i].To || math.Float64bits(got[i].W) != math.Float64bits(want[i].W) {
			return fmt.Errorf("coarse arc %d is (%d,%d,%b), the map oracle has (%d,%d,%b)",
				i, got[i].From, got[i].To, got[i].W, want[i].From, want[i].To, want[i].W)
		}
	}
	return nil
}

// checkCoarseArcs runs both Step-5 kernels on st (collective: the renumbering
// is) and holds the shipped one to the oracle.
func checkCoarseArcs(st *phaseState) (coarsenSeen, error) {
	var saw coarsenSeen
	ren, _, err := st.renumber(nil)
	if err != nil {
		return saw, err
	}
	bySlot, err := st.translateSlots(ren)
	if err != nil {
		return saw, err
	}
	saw.arcs = slices.Concat(st.coarseArcs(bySlot)...)
	if err := sameCoarseArcs(saw.arcs, st.coarseArcsMap(ren)); err != nil {
		return saw, err
	}

	n, held := int32(st.dg.LocalN), int32(st.dg.LocalN)+int32(len(st.dg.Ghosts))
	local := make([]bool, len(st.refs)) // slots some local vertex sits in
	saw.allLeft = n > 0
	for _, c := range st.comm {
		if !local[c] {
			local[c] = true
			saw.sources = append(saw.sources, st.gidOf(c))
		}
		saw.tailSource = saw.tailSource || c >= held
		saw.allLeft = saw.allLeft && c >= n
	}
	for _, c := range st.ghostComm {
		saw.tailTarget = saw.tailTarget || c >= held
	}
	for s, nw := range ren.newOwned {
		saw.deadOwned = saw.deadOwned || nw < 0
		saw.absentOwned = saw.absentOwned || (nw >= 0 && !local[s])
	}
	return saw, nil
}

// TestCoarseArcsMatchMapOracle: random graphs from internal/gen with integer
// and float weights, and the matched cycle whose upper half all moves into
// the lower half's communities, × 1–4 ranks × 1/2/3/5 threads × baseline / ET
// / ETC, over the first phases of a run. After every phase's iterate the
// shipped aggregator must emit the oracle's arcs — each pair once, weights to
// the bit — and, at every thread count, the very sequence one thread emits.
// The corner cases the aggregator has a branch or an index range for must have
// come up (asserted at the end).
func TestCoarseArcsMatchMapOracle(t *testing.T) {
	graphs := slotGraphs()
	pn, pEdges, _ := gen.PlantedPartition(6, 25, 0.4, 0.02, 19)
	graphs = append(graphs, slotGraph{"planted-float", pn, floatWeights(pEdges), true})
	bn, bEdges := bipartiteBoundary(24)
	graphs = append(graphs, slotGraph{"matched-cycle", bn, bEdges, false})
	variants := []struct {
		name string
		cfg  Config
	}{
		{"baseline", Baseline()},
		{"et", ET(0.25)},
		{"etc", ETC(0.25)},
	}
	type corners struct{ tailSource, tailTarget, deadOwned, absentOwned, allLeft, splitSource bool }
	var saw corners
	for _, g := range graphs {
		for _, v := range variants {
			t.Run(g.name+"/"+v.name, func(t *testing.T) {
				for ranks := 1; ranks <= 4; ranks++ {
					var oneThread [][][]dgraph.Arc // [rank][phase]: what Threads=1 emitted
					for _, threads := range []int{1, 2, 3, 5} {
						out, err := mpi.RunCollect(ranks, func(c *mpi.Comm) ([]coarsenSeen, error) {
							lo, hi := gio.SegmentRange(int64(len(g.edges)), c.Rank(), ranks)
							dg, err := dgraph.Build(c, g.n, g.edges[lo:hi], nil)
							if err != nil {
								return nil, err
							}
							var phases []coarsenSeen
							for phase := 0; phase < 3; phase++ {
								cfg := v.cfg
								cfg.Threads = threads
								cfg.fill()
								st, err := newPhaseState(dg, &cfg, phase, &StepTimes{})
								if err != nil {
									return nil, err
								}
								if _, err := st.iterate(cfg.Tau); err != nil {
									return nil, err
								}
								seen, err := checkCoarseArcs(st)
								if err != nil {
									return nil, fmt.Errorf("phase %d: %w", phase, err)
								}
								phases = append(phases, seen)
								ndg, _, err := st.rebuild(nil)
								if err != nil {
									return nil, err
								}
								if err := ndg.Validate(); err != nil {
									return nil, err
								}
								if ndg.GlobalN == dg.GlobalN {
									break
								}
								dg = ndg
							}
							return phases, nil
						})
						if err != nil {
							t.Fatalf("ranks=%d threads=%d: %v", ranks, threads, err)
						}
						if threads == 1 {
							oneThread = make([][][]dgraph.Arc, ranks)
						}
						for phase := range out[0] {
							holders := map[int64]int{} // source community → ranks it has members on
							for r, phases := range out {
								seen := phases[phase]
								if threads == 1 {
									oneThread[r] = append(oneThread[r], seen.arcs)
								} else if !slices.Equal(seen.arcs, oneThread[r][phase]) {
									t.Fatalf("ranks=%d threads=%d: rank %d phase %d emits a different arc sequence than one thread does", ranks, threads, r, phase)
								}
								for _, cid := range seen.sources {
									holders[cid]++
									saw.splitSource = saw.splitSource || holders[cid] > 1
								}
								saw.tailSource = saw.tailSource || seen.tailSource
								saw.tailTarget = saw.tailTarget || seen.tailTarget
								saw.deadOwned = saw.deadOwned || seen.deadOwned
								saw.absentOwned = saw.absentOwned || seen.absentOwned
								saw.allLeft = saw.allLeft || seen.allLeft
							}
						}
					}
				}
			})
		}
	}
	if saw != (corners{true, true, true, true, true, true}) {
		t.Fatalf("corner cases not all exercised: %+v", saw)
	}
}

// TestCoarseArcsAllocationCeiling: one aggregation allocates the member list
// and its offsets (4 bytes per local vertex and per slot), the emitted arcs in
// blocks, and nothing that grows with the fine arcs: at eight times the edges
// over the same vertices the same ceiling holds — one Arc's 24 bytes per local
// vertex, slot and emitted arc, plus one block. (The table this replaced was
// sized by the fine arcs and breaks it at either size.)
func TestCoarseArcsAllocationCeiling(t *testing.T) {
	for _, m := range []int64{6000, 48000} {
		n, edges := gen.ErdosRenyi(2000, m, 9)
		kb, err := NewKernelBench(n, edges, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		st := kb.st
		bySlot, err := st.translateSlots(kb.ren)
		if err != nil {
			t.Fatal(err)
		}
		st.coarseArcs(bySlot) // settles the accumulator's key list
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		blocks := st.coarseArcs(bySlot)
		runtime.ReadMemStats(&after)
		emitted := 0
		for _, b := range blocks {
			emitted += len(b)
		}
		got := after.TotalAlloc - before.TotalAlloc
		ceiling := uint64(24 * (int(st.dg.LocalN) + len(st.refs) + emitted + arcBlockLen))
		t.Logf("m=%d: %d fine arcs, %d emitted, %d bytes allocated (ceiling %d)", m, len(st.dg.Edges), emitted, got, ceiling)
		if emitted == 0 || emitted >= len(st.dg.Edges) {
			t.Fatalf("m=%d: %d coarse arcs from %d fine ones: nothing merged", m, emitted, len(st.dg.Edges))
		}
		if got > ceiling {
			t.Fatalf("m=%d: one aggregation allocated %d bytes, ceiling %d", m, got, ceiling)
		}
		// Several blocks' worth: the block seams lose and repeat nothing.
		if err := sameCoarseArcs(slices.Concat(blocks...), st.coarseArcsMap(kb.ren)); err != nil || len(blocks) < 2 {
			t.Fatalf("m=%d: %d blocks: %v", m, len(blocks), err)
		}
		kb.Close()
	}
}
