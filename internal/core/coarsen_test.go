package core

import (
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

// coarsenSeen is what one rank reports from one aggregation: the old IDs of
// the source communities that have members here, and which of the
// aggregator's corner cases the state held.
type coarsenSeen struct {
	sources []int64
	// tailSource: a local vertex sits in a tail slot. tailTarget: a ghost does.
	// deadOwned: an owned community died. absentOwned: an owned community is
	// alive with no member on its owner. allLeft: this rank has vertices and
	// every one of them sits in a community another rank owns.
	tailSource, tailTarget, deadOwned, absentOwned, allLeft bool
}

// sameCoarseGraph holds the coarse graph the shipped kernel's frames
// assembled to the one BuildFromArcs makes of the map oracle's arcs: the same
// rows, the same targets, weights bit for bit.
func sameCoarseGraph(got, want *dgraph.DistGraph) error {
	if got.Base != want.Base || !slices.Equal(got.Index, want.Index) {
		return fmt.Errorf("rows from %d: index %v, the map oracle's graph has %v from %d", got.Base, got.Index, want.Index, want.Base)
	}
	for i, s := range want.Slot {
		to, w := got.Target(got.Slot[i]), got.W[i]
		if wantTo, wantW := want.Target(s), want.W[i]; to != wantTo || math.Float64bits(w) != math.Float64bits(wantW) {
			return fmt.Errorf("coarse arc %d is (→%d,%b), the map oracle's graph has (→%d,%b)", i, to, w, wantTo, wantW)
		}
	}
	return nil
}

// checkCoarseGraph runs the shipped Step-5 kernel on st into a shuffle over
// the coarse graph's vertex space and exchanges it, builds the map oracle's
// arcs with BuildFromArcs (both collective), and holds the first graph to the
// second. The kernel must also count exactly the oracle's arcs: each coarse
// pair leaves the rank once.
func checkCoarseGraph(st *phaseState, bySlot []int64, coarseN int64) error {
	c := st.dg.Comm
	sh := dgraph.NewShuffle(c, coarseN, st.cfg.Threads, true)
	wrote := st.coarseArcs(bySlot, sh)
	got, err := sh.Exchange(nil)
	if err != nil {
		return err
	}
	oracle := st.coarseArcsMap(bySlot)
	want, err := dgraph.BuildFromArcs(c, coarseN, oracle)
	if err != nil {
		return err
	}
	if wrote != len(oracle) {
		return fmt.Errorf("the kernel wrote %d coarse arcs, the map oracle has %d", wrote, len(oracle))
	}
	return sameCoarseGraph(got, want)
}

// checkCoarseArcs runs both Step-5 kernels on st (collective: the renumbering
// is) and holds the shipped one to the oracle.
func checkCoarseArcs(st *phaseState) (coarsenSeen, error) {
	var saw coarsenSeen
	bySlot, coarseN, err := st.renumber()
	if err != nil {
		return saw, err
	}
	if err := checkCoarseGraph(st, bySlot, coarseN); err != nil {
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
	for s, nw := range bySlot[:n] {
		saw.deadOwned = saw.deadOwned || nw < 0
		saw.absentOwned = saw.absentOwned || (nw >= 0 && !local[s])
	}
	return saw, nil
}

// TestCoarseArcsMatchMapOracle: random graphs from internal/gen with integer
// and float weights, and the matched cycle whose upper half all moves into
// the lower half's communities, × 1–4 ranks × 1/2/3/5 threads × baseline / ET
// / ETC, over the first phases of a run. After every phase's iterate the
// shipped aggregator's frames must assemble to the graph the oracle's arcs
// make — each pair leaving a rank once, weights to the bit — so the coarse
// graph is the same at every thread count. The corner cases the aggregator
// has a branch or an index range for must have come up (asserted at the end).
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
								ndg, _, err := st.rebuild()
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
						for phase := range out[0] {
							holders := map[int64]int{} // source community → ranks it has members on
							for _, phases := range out {
								seen := phases[phase]
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
// and its offsets (4 bytes per local vertex and per slot), the translated
// slot table (8 per slot), the frames at 16 bytes per emitted arc, and nothing
// that grows with the fine arcs: at eight times the edges over the same
// vertices the same ceiling holds — 16 bytes per local vertex, slot and
// emitted arc, plus a few hundred for the writers. (A table sized by the fine
// arcs breaks it at either size, and so does a list of arcs kept beside the
// frames.)
func TestCoarseArcsAllocationCeiling(t *testing.T) {
	for _, m := range []int64{6000, 48000} {
		n, edges := gen.ErdosRenyi(2000, m, 9)
		kb, err := NewKernelBench(n, edges, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		st := kb.st
		kb.CoarseArcs() // settles the accumulator's key list
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		emitted := kb.CoarseArcs()
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		ceiling := uint64(16*(int(st.dg.LocalN)+len(st.refs)+emitted) + 512)
		t.Logf("m=%d: %d fine arcs, %d emitted, %d bytes allocated (ceiling %d)", m, len(st.dg.W), emitted, got, ceiling)
		if emitted == 0 || emitted >= len(st.dg.W) {
			t.Fatalf("m=%d: %d coarse arcs from %d fine ones: nothing merged", m, emitted, len(st.dg.W))
		}
		if got > ceiling {
			t.Fatalf("m=%d: one aggregation allocated %d bytes, ceiling %d", m, got, ceiling)
		}
		// What was counted is the oracle's arc count, and the frames assemble
		// to the oracle's graph.
		if err := checkCoarseGraph(st, kb.bySlot, kb.coarseN); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		kb.Close()
	}
}
