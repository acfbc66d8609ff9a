package core

import (
	"distlouvain/internal/frontier"
	"distlouvain/internal/obsv"
	"time"
)

// frontierState drives the ligra-style active-set sweep of a phase. The
// invariant the differential tests pin: before iteration i's sweep, cur
// contains every local vertex whose ΔQ decision could differ from the
// decision the previous iteration's sweep computed (or would have computed)
// for it. A vertex's decision depends on its own community, its neighbours'
// communities (local and ghost), and the (A_c, size) of every community in
// that neighbourhood — so a vertex is dirtied when any of those changed
// during iteration i−1:
//
//	(a) it moved (pushDeltas overlap window);
//	(b) a local neighbour moved (same window, via the CSR row);
//	(c) a ghost neighbour's community value changed during the iteration-end
//	    exchange (setGhost compare-before-write → reverse ghost adjacency);
//	(d) a community in its neighbourhood changed (A_c, size) bitwise — owned
//	    entries are watched by applyDelta, remote entries by
//	    fetchCommunityInfo comparing each reply with the value the previous
//	    round left in the slot (a slot the previous round did not refresh
//	    counts as changed) — where "its neighbourhood references c" is
//	    resolved by scanning comm/ghostComm for members of c and marking them
//	    plus their local/reverse-ghost adjacency;
//	(e) the ET coin skipped it while it was in the frontier (the sweep
//	    carries it over so a stale vertex is re-checked until actually
//	    evaluated; permanently inactive vertices drop out — the full scan
//	    never evaluates those again either).
//
// Marking a superset is always safe: re-evaluating an unchanged vertex
// reproduces its previous "stay put" decision. The rules never mark less
// than the set whose decision can change, which is the bit-identity proof.
type frontierState struct {
	cur, next *frontier.Set

	// scanDense mirrors cur.Dense() for the duration of one sweep: workers
	// filter by Has under the bitmap scan, and iterate cur.Sorted() directly
	// under the list scan.
	scanDense bool

	// carryBufs[w] collects rule-(e) carry-overs per sweep worker; merged
	// into next single-threaded after the parallel region.
	carryBufs [][]int64

	// Reverse ghost adjacency, built once per phase: the local vertices
	// adjacent to each ghost slot (revAdj[revOff[slot]:revOff[slot+1]]).
	revOff []int64
	revAdj []int64

	// Rule-(d) watcher, per community slot, owned and remote alike: the
	// slot's (A_c, size) changed since the last frontier build iff
	// stamp[slot] == epoch; changed counts them.
	stamp   []int32
	epoch   int32
	changed int
}

func newFrontierState(st *phaseState) *frontierState {
	n := st.dg.LocalN
	// The representation follows the set's size (frontier.RepAuto at
	// frontier.DefaultSparseFraction) unless a test pins it.
	rep := st.cfg.oracle.rep
	fr := &frontierState{
		cur:       frontier.New(n, rep, 0),
		next:      frontier.New(n, rep, 0),
		carryBufs: make([][]int64, st.cfg.Threads),
		stamp:     make([]int32, len(st.refs)),
		epoch:     1, // the zeroed stamps mean "unchanged"
	}

	// Reverse ghost adjacency by counting sort over the arcs' slots.
	counts := make([]int64, len(st.dg.Ghosts)+1)
	for _, s := range st.dg.Slot {
		if g := int64(s) - n; g >= 0 {
			counts[g+1]++
		}
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	fr.revOff = counts
	fr.revAdj = make([]int64, counts[len(counts)-1])
	fill := make([]int64, len(st.dg.Ghosts))
	for lv := int64(0); lv < n; lv++ {
		for _, s := range st.dg.Slot[st.dg.Index[lv]:st.dg.Index[lv+1]] {
			if g := int64(s) - n; g >= 0 {
				fr.revAdj[fr.revOff[g]+fill[g]] = lv
				fill[g]++
			}
		}
	}
	return fr
}

// markLocalAdj dirties lv and its local neighbours (rules a, b and d).
func (st *phaseState) markLocalAdj(lv int64) {
	next, n := st.fr.next, st.dg.LocalN
	next.Mark(lv)
	for _, s := range st.dg.Slot[st.dg.Index[lv]:st.dg.Index[lv+1]] {
		if int64(s) < n {
			next.Mark(int64(s))
		}
	}
}

// markGhostAdj dirties the locals adjacent to ghost g (rules c and d).
func (fr *frontierState) markGhostAdj(g int32) {
	for _, lv := range fr.revAdj[fr.revOff[g]:fr.revOff[g+1]] {
		fr.next.Mark(lv)
	}
}

// noteChanged records that the (A_c, size) of community slot c changed
// bitwise since the last frontier build (rule d).
func (fr *frontierState) noteChanged(c int32) {
	if fr.stamp[c] != fr.epoch {
		fr.stamp[c] = fr.epoch
		fr.changed++
	}
}

// markMoves dirties this iteration's movers and their local neighbours
// (rules a and b). Ghost neighbours of a mover are other ranks' locals;
// those ranks observe the move through their ghost table (rule c on their
// side).
func (st *phaseState) markMoves(moves []move) {
	for _, mv := range moves {
		st.markLocalAdj(mv.lv)
	}
}

// buildFrontier finalises the active set for iteration iter (1-based). It
// runs after fetchCommunityInfo — the remote (A_c, size) values are fresh —
// and before the sweep. Iteration 1 seeds the full vertex set; later
// iterations fold in rule (d) and swap in the set rules a–c and e built
// during iteration iter−1.
func (st *phaseState) buildFrontier(iter int) {
	fr := st.fr
	if fr == nil {
		return
	}
	sp := st.tr().Begin(obsv.KindStep, "frontier-build")
	t0 := time.Now()

	if iter == 1 {
		fr.cur.Fill()
	} else {
		// Rule (d): communities whose (A_c, size) changed during iter−1.
		// Resolve "references a changed community" by membership: the
		// referencing vertices are the members plus everything adjacent to
		// a member (through the CSR rows for local members, through the
		// reverse ghost adjacency for ghost members).
		if fr.changed > 0 {
			for lv, c := range st.comm {
				if fr.stamp[c] == fr.epoch {
					st.markLocalAdj(int64(lv))
				}
			}
			for g, c := range st.ghostComm {
				if fr.stamp[c] == fr.epoch {
					fr.markGhostAdj(int32(g))
				}
			}
		}
		fr.cur, fr.next = fr.next, fr.cur
		fr.next.Clear()
	}

	// Reset the rule-(d) watcher for the iteration about to run.
	fr.changed = 0
	fr.epoch++
	if fr.epoch == 0 { // int32 wrap: restamp
		clear(fr.stamp)
		fr.epoch = 1
	}

	fr.scanDense = fr.cur.Dense()
	st.steps.Compute += time.Since(t0)
	sp.SetCount(fr.cur.Len())
	sp.End()
}
