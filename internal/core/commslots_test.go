package core

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/mpi"
)

// The community-slot differential harness. The incrementally maintained slot
// tables are held, iteration by iteration, to four maps rebuilt from the
// endpoint array every iteration (needed, remoteInfo, prevRemote,
// changedRemote), the oracles below. The sweep itself is held to evaluateVertexRef (global IDs, Go
// map) by slots_test.go and kernels_test.go.

// Scripting helpers for tests that set communities by global ID.

// commGIDs returns the community of every local vertex as a global ID.
func (st *phaseState) commGIDs() []int64 {
	out := make([]int64, len(st.comm))
	for lv, c := range st.comm {
		out[lv] = st.gidOf(c)
	}
	return out
}

// gatherLabels collects every rank's commGIDs at rank 0, in vertex order (ranks
// own ascending ranges); other ranks get nil. A collective.
func (st *phaseState) gatherLabels() ([]int64, error) {
	c := st.dg.Comm
	blocks, err := c.Gatherv(0, mpi.EncodeInt64s(st.commGIDs()))
	if err != nil || c.Rank() != 0 {
		return nil, err
	}
	var labels []int64
	for _, b := range blocks {
		part, err := mpi.DecodeInt64s(b)
		if err != nil {
			return nil, err
		}
		labels = append(labels, part...)
	}
	return labels, nil
}

// setCommGID moves local vertex lv into the community with global ID gid.
func (st *phaseState) setCommGID(lv, gid int64) {
	c, err := st.slotOf(gid)
	if err != nil {
		panic(err)
	}
	st.setComm(lv, c)
}

// mustSetGhost is setGhost for scripts that cannot run out of slot space.
func (st *phaseState) mustSetGhost(g int32, gid int64) {
	if err := st.setGhost(g, gid); err != nil {
		panic(err)
	}
}

// slotOracle recomputes, the way the code before the slot tables did, what
// one rank's tables should hold.
type slotOracle struct {
	st         *phaseState
	prevRemote map[int64]cinfo    // the previous fetch's remote (A_c, size), by global ID
	ever       map[int64]struct{} // communities ever referenced that are named after a vertex this rank does not hold
	fetches    int
}

func newSlotOracle(st *phaseState) *slotOracle {
	return &slotOracle{st: st, prevRemote: map[int64]cinfo{}, ever: map[int64]struct{}{}}
}

// needed is the map scan: every non-owned community some local vertex or
// ghost is in.
func (o *slotOracle) needed() map[int64]struct{} {
	st := o.st
	needed := make(map[int64]struct{})
	for _, c := range st.ci {
		if cid := st.gidOf(c); !st.dg.IsLocal(cid) {
			needed[cid] = struct{}{}
		}
	}
	return needed
}

// ownerTables gathers every rank's owned (A_c, size) table (two collectives:
// each rank fills its own range of a zeroed global table, and the sum is the
// union) and returns it indexed by global community ID.
func (o *slotOracle) ownerTables() ([]cinfo, error) {
	st := o.st
	as, sizes := make([]float64, st.dg.GlobalN), make([]int64, st.dg.GlobalN)
	copy(as[st.dg.Base:], st.cA[:st.dg.LocalN])
	copy(sizes[st.dg.Base:], st.cSize[:st.dg.LocalN])
	as, err := st.dg.Comm.AllreduceFloat64s(as, mpi.OpSum)
	if err != nil {
		return nil, err
	}
	if sizes, err = st.dg.Comm.AllreduceInt64s(sizes, mpi.OpSum); err != nil {
		return nil, err
	}
	table := make([]cinfo, st.dg.GlobalN)
	for c := range table {
		table[c] = cinfo{a: as[c], size: sizes[c]}
	}
	return table, nil
}

// checkRefs is check (iv) plus the slot-space bound: refs is what a recount
// of the endpoint array gives, and the tail holds no more than the non-held
// communities this rank ever referenced.
func (o *slotOracle) checkRefs(when string) error {
	st := o.st
	recount := make([]int32, len(st.refs))
	for _, c := range st.ci {
		recount[c]++
	}
	if !slices.Equal(recount, st.refs) {
		return fmt.Errorf("%s: refs differ from a recount of the endpoint array", when)
	}
	for cid := range o.needed() {
		if _, ghost := st.dg.GhostSlot(cid); !ghost {
			o.ever[cid] = struct{}{}
		}
	}
	if held := int(st.dg.LocalN) + len(st.dg.Ghosts); len(st.refs) > held+len(o.ever) {
		return fmt.Errorf("%s: %d community slots for %d held vertices and %d other communities ever referenced",
			when, len(st.refs), held, len(o.ever))
	}
	return nil
}

// afterFetch runs checks (i)–(iv) between an iteration's fetch and its
// frontier build. Every rank calls it at the same point.
func (o *slotOracle) afterFetch() error {
	st := o.st
	o.fetches++
	when := fmt.Sprintf("fetch %d", o.fetches)
	n := int32(st.dg.LocalN)

	// (i) The live non-owned slots, and the request lists cut from them, are
	// the needed set.
	needed := o.needed()
	live := make(map[int64]int32)
	for s := n; int(s) < len(st.refs); s++ {
		if st.refs[s] > 0 {
			live[st.gidOf(s)] = s
		}
	}
	if !maps.EqualFunc(live, needed, func(int32, struct{}) bool { return true }) {
		return fmt.Errorf("%s: %d live non-owned slots, the map scan needs %d communities", when, len(live), len(needed))
	}
	requested := 0
	for q, gids := range st.reqGIDs {
		if !slices.IsSorted(gids) || len(st.reqSlots[q]) != len(gids) {
			return fmt.Errorf("%s: request list for rank %d is unsorted or out of step with its slots", when, q)
		}
		for i, cid := range gids {
			if live[cid] != st.reqSlots[q][i] || st.dg.Part.Owner(cid) != q {
				return fmt.Errorf("%s: request list for rank %d names community %d, slot %d", when, q, cid, st.reqSlots[q][i])
			}
		}
		requested += len(gids)
	}
	if requested != len(needed) {
		return fmt.Errorf("%s: %d communities requested, %d needed", when, requested, len(needed))
	}

	// (ii) Every live slot holds what its owner's table held when it answered.
	owners, err := o.ownerTables()
	if err != nil {
		return err
	}
	remote := make(map[int64]cinfo, len(live))
	for cid, s := range live {
		remote[cid] = owners[cid]
		if math.Float64bits(st.cA[s]) != math.Float64bits(owners[cid].a) || st.cSize[s] != owners[cid].size {
			return fmt.Errorf("%s: community %d cached as (%v, %d), owner holds (%v, %d)",
				when, cid, st.cA[s], st.cSize[s], owners[cid].a, owners[cid].size)
		}
		if info, ok := st.infoOf(cid); !ok || info != owners[cid] {
			return fmt.Errorf("%s: infoOf(%d) = %v, %v", when, cid, info, ok)
		}
	}

	// (iii) Rule (d), remote half: a slot is marked changed, with the direction
	// of the change, when its community was absent from the previous fetch
	// (both ways), when its size differs and is 0 or 1 on either side (both
	// ways: the minimum-label rule reads "== 1", and membership and values
	// change together there), or when its A rose (members) or fell
	// (neighbours). A community whose size alone changed, away from {0, 1}, is
	// NOT marked: no decision reads such a size, and its A — the only other
	// thing a gain reads — kept its bits, because the weighted degrees that
	// came and the ones that went cancel (exactly, on integer weights). A
	// plain "differs from the previous fetch" rule counts one such community
	// on er-int at 2 ranks, fetch 3: 23 where the rule marks 22.
	if st.fr != nil {
		want := make(map[int64]changeDir)
		for cid, info := range remote {
			prev, ok := o.prevRemote[cid]
			switch {
			case !ok, prev != info && (prev.size <= 1 || info.size <= 1):
				want[cid] = dirBoth
			case info.a > prev.a:
				want[cid] = dirMembers
			case info.a < prev.a:
				want[cid] = dirNeighbours
			}
		}
		got := make(map[int64]changeDir)
		for s := n; int(s) < len(st.refs); s++ {
			if st.fr.stamp[s] == st.fr.epoch {
				got[st.gidOf(s)] = st.fr.dir[s]
			}
		}
		if !maps.Equal(got, want) {
			return fmt.Errorf("%s: %d remote communities marked changed, the diff against the previous fetch gives %d (or their directions differ)", when, len(got), len(want))
		}
	}
	o.prevRemote = remote

	// (iv)
	return o.checkRefs(when)
}

// TestFrontierCommunitySlotsMatchOracles drives whole phases with the oracle
// hooked in after every fetch and after every ghost refresh: baseline / ET /
// ETC × 1–4 ranks × 1–2 threads × an integer- and a float-weighted
// graph. The integer graph's baseline run takes the rollback branch, so the
// recount after restore is exercised too (asserted).
func TestFrontierCommunitySlotsMatchOracles(t *testing.T) {
	variants := []struct {
		name string
		cfg  Config
	}{
		{"baseline", Baseline()},
		{"et", ET(0.25)},
		{"etc", ETC(0.25)},
	}
	for _, g := range slotGraphs() {
		for _, v := range variants {
			t.Run(g.name+"/"+v.name, func(t *testing.T) {
				sawRollback, sawTail := false, false
				for ranks := 1; ranks <= 4; ranks++ {
					for threads := 1; threads <= 2; threads++ {
						type seen struct{ rollback, tail bool }
						out, err := mpi.RunCollect(ranks, func(c *mpi.Comm) (seen, error) {
							var saw seen
							lo, hi := gio.SegmentRange(int64(len(g.edges)), c.Rank(), ranks)
							dg, err := dgraph.Build(c, g.n, g.edges[lo:hi], nil)
							if err != nil {
								return saw, err
							}
							for phase := 0; phase < 4; phase++ {
								cfg := v.cfg
								cfg.Threads = threads
								cfg.fill()
								st, err := newPhaseState(dg, &cfg, phase, &StepTimes{})
								if err != nil {
									return saw, err
								}
								o := newSlotOracle(st)
								st.afterFetch = o.afterFetch
								var hookErr error
								cfg.Progress = func(ev ProgressEvent) {
									if ev.Kind == ProgressIteration && hookErr == nil {
										hookErr = o.checkRefs(fmt.Sprintf("after iteration %d", ev.Iteration))
									}
								}
								stat, err := st.iterate(cfg.Tau)
								if err == nil {
									err = hookErr
								}
								if err == nil {
									// Straight after a rollback, if there was one.
									err = o.checkRefs("after the phase")
								}
								if err != nil {
									return saw, fmt.Errorf("phase %d: %w", phase, err)
								}
								if k := len(stat.QTrajectory); k >= 2 && stat.QTrajectory[k-1] < stat.QTrajectory[k-2] {
									saw.rollback = true
								}
								saw.tail = saw.tail || st.tail.Len() > 0
								ndg, _, err := st.rebuild()
								if err != nil {
									return saw, err
								}
								if ndg.GlobalN == dg.GlobalN {
									break
								}
								dg = ndg
							}
							return saw, nil
						})
						if err != nil {
							t.Fatalf("ranks=%d threads=%d: %v", ranks, threads, err)
						}
						for _, s := range out {
							sawRollback = sawRollback || s.rollback
							sawTail = sawTail || s.tail
						}
					}
				}
				if !g.float && v.name == "baseline" && !sawRollback {
					t.Fatal("no phase took the rollback branch; pick a graph that does")
				}
				if !sawTail {
					t.Fatal("no rank ever referenced a community outside its vertices and ghosts; the tail went untested")
				}
			})
		}
	}
}

// TestFrontierSlotRefetchedAfterUnreference: on a path over 3 ranks, rank 0's
// only ghost joins a community owned by rank 2 (a tail slot on rank 0), leaves
// it for one rank 0 owns, and joins it again — so the request lists go stale
// once only because a slot lost its last reference and once only because one
// gained its first. While unreferenced the community must not be requested;
// on return it must be fetched again and count as changed although its values
// never moved — it was absent from the previous fetch.
func TestFrontierSlotRefetchedAfterUnreference(t *testing.T) {
	const per, far, own = 10, 25, 3 // 3 ranks × 10 vertices; vertex 25 is rank 2's, 3 rank 0's
	n, edges := gen.BandedMesh(3*per, 1)
	err := mpi.Run(3, func(c *mpi.Comm) error {
		st, err := baselinePhaseState(c, n, edges)
		if err != nil {
			return err
		}
		// One protocol round: rank 0 optionally rewrites its ghost, then every
		// rank fetches; the frontier build in between resets the rule-(d) marks
		// the way an iteration would.
		round := func(ghostTo int64) error {
			st.buildFrontier(2)
			if c.Rank() == 0 && ghostTo >= 0 {
				st.mustSetGhost(0, ghostTo)
			}
			return st.fetchCommunityInfo()
		}
		if err := round(-1); err != nil {
			return err
		}
		if c.Rank() != 0 {
			for i := 0; i < 4; i++ {
				if err := round(-1); err != nil {
					return err
				}
			}
			return nil
		}
		if len(st.dg.Ghosts) != 1 || st.dg.Ghosts[0] != per {
			return fmt.Errorf("rank 0 ghosts %v, want [%d]", st.dg.Ghosts, per)
		}
		changed := func(s int32) bool { return st.fr.stamp[s] == st.fr.epoch }

		// Referenced for the first time: a tail slot, fetched, changed.
		if err := round(far); err != nil {
			return err
		}
		s, ok := st.findSlot(far)
		if !ok || int(s) != per+1 || st.refs[s] != 1 {
			return fmt.Errorf("community %d: slot %d (found %v), refs %v", far, s, ok, st.refs)
		}
		if st.fetched[s] != st.fetchSeq || !changed(s) || st.cA[s] != 2 || st.cSize[s] != 1 {
			return fmt.Errorf("first reference: fetched %d of %d, changed %v, (A, size) = (%v, %d)",
				st.fetched[s], st.fetchSeq, changed(s), st.cA[s], st.cSize[s])
		}
		// Still referenced, same values: fetched again, not changed.
		if err := round(-1); err != nil {
			return err
		}
		if st.fetched[s] != st.fetchSeq || changed(s) {
			return fmt.Errorf("steady reference: fetched %d of %d, changed %v", st.fetched[s], st.fetchSeq, changed(s))
		}
		// Unreferenced: not requested, so its last fetch falls behind.
		if err := round(own); err != nil {
			return err
		}
		if st.refs[s] != 0 || st.fetched[s] != st.fetchSeq-1 || slices.Contains(st.reqGIDs[2], far) {
			return fmt.Errorf("unreferenced: refs %d, fetched %d of %d, requests to rank 2 %v",
				st.refs[s], st.fetched[s], st.fetchSeq, st.reqGIDs[2])
		}
		// Referenced again: the same slot, fetched, changed on identical bits.
		if err := round(far); err != nil {
			return err
		}
		if again, _ := st.findSlot(far); again != s || len(st.refs) != per+2 {
			return fmt.Errorf("second reference: slot %d (was %d), %d slots", again, s, len(st.refs))
		}
		if st.fetched[s] != st.fetchSeq || !changed(s) || st.cA[s] != 2 || st.cSize[s] != 1 {
			return fmt.Errorf("second reference: fetched %d of %d, changed %v, (A, size) = (%v, %d)",
				st.fetched[s], st.fetchSeq, changed(s), st.cA[s], st.cSize[s])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIterationSteadyStateAllocs: one steady-state iteration of a 1-rank
// phase — fetch, frontier build, sweep, delta push, ghost refresh, modularity
// — allocates a fixed number of objects (the collectives' own: receive tables,
// the self-addressed copy, the allreduce vector), the same on a graph eight
// times the size. (The sweep's share is zero: TestSweepSteadyStateAllocs.)
func TestIterationSteadyStateAllocs(t *testing.T) {
	perIteration := func(n, m int64) float64 {
		vn, edges := gen.ErdosRenyi(n, m, 7)
		kb, err := NewKernelBench(vn, edges, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		defer kb.Close()
		st := kb.st
		iter := 2
		iteration := func() {
			iter++
			err := st.fetchCommunityInfo()
			st.buildFrontier(iter)
			moves := st.sweep(iter)
			err = errors.Join(err, st.pushDeltas(st.stageMoves(moves), moves), st.exchangeGhostComm())
			_, _, qerr := st.modularityAndMoves(int64(len(moves)))
			if err = errors.Join(err, qerr); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			iteration() // settle buffer capacities
		}
		return testing.AllocsPerRun(10, iteration)
	}
	small, large := perIteration(500, 3000), perIteration(4000, 24000)
	if small != large || small > 32 {
		t.Fatalf("a steady-state iteration allocates %.1f objects on 500 vertices and %.1f on 4000; want equal and O(p)", small, large)
	}
	t.Logf("%.0f allocations per steady-state iteration at p = 1", small)
}

func TestCommunitySlotSpaceIsChecked(t *testing.T) {
	if err := checkSlotSpace(math.MaxInt32 - 1); err != nil {
		t.Fatalf("last slot rejected: %v", err)
	}
	if err := checkSlotSpace(math.MaxInt32); !errors.Is(err, dgraph.ErrSlotSpace) {
		t.Fatalf("got %v, want ErrSlotSpace", err)
	}
}
