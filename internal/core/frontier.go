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
//	(a) it moved (pushDeltas, after the delta exchange);
//	(b) a local neighbour moved (same place, via the CSR row);
//	(c) a ghost neighbour's community value changed during the iteration-end
//	    exchange (setGhost compare-before-write → reverse ghost adjacency);
//	(d) the (A_c, size) of a community c in its neighbourhood changed in the
//	    direction that can raise one of its gains — owned entries are watched
//	    by applyDelta, remote entries by fetchCommunityInfo comparing each
//	    reply with the value the previous round left in the slot. ΔQ is
//	    monotone in A_c, in floating point too (see changeDir): when A_c rose,
//	    c's gain fell for every non-member and only c's members (whose
//	    alternatives all gained) are marked; when A_c fell, only the
//	    non-members adjacent to a member are; a size that changed without
//	    touching 0 or 1 is read by no rule and marks nothing; a size at 0 or 1
//	    before or after (the minimum-label rule reads it), or a slot the
//	    previous round did not refresh, marks both ways. "Adjacent to a
//	    member" is resolved by scanning comm/ghostComm for members of c and
//	    walking their local/reverse-ghost adjacency;
//	(e) the ET coin skipped it while it was in the frontier (the sweep
//	    carries it over so a stale vertex is re-checked until actually
//	    evaluated; permanently inactive vertices drop out — the full scan
//	    never evaluates those again either), or a rule refused the move it
//	    chose (the minimum-label rule, the return rule of a damped phase): a
//	    refusal rests on where the vertex was an iteration ago and on the
//	    phase being damped, which change without any neighbour changing.
//
// Marking a superset is always safe: re-evaluating an unchanged vertex
// reproduces its previous "stay put" decision. The rules never mark less
// than the set whose decision can change, which is the bit-identity proof: a
// vertex outside the frontier last decided "no gain is positive" (one that
// moved is in by rule a, one that was refused by rule e), and every change to
// what it reads since then either marked it or lowered its gains.
type frontierState struct {
	cur, next *frontier.Set

	// scanDense mirrors cur.Dense() for the duration of one sweep: workers
	// filter by Has under the bitmap scan, and iterate cur.Sorted() directly
	// under the list scan.
	scanDense bool

	// carryBufs[w] collects rule-(e) carry-overs (coin-skipped, refused) per
	// sweep worker; merged into next single-threaded after the parallel region.
	carryBufs [][]int64

	// Reverse ghost adjacency, built once per phase: the local vertices
	// adjacent to ghost g (revAdj[revOff[g]:revOff[g+1]]), as int32 like the
	// slots that bound them.
	revOff []int64
	revAdj []int32

	// Rule-(d) watcher, per community slot, owned and remote alike: the
	// slot's (A_c, size) changed since the last frontier build, in a way some
	// decision can read, iff stamp[slot] == epoch; dir[slot] then holds whom
	// it concerns, OR-ed over the iteration's changes; changed counts them.
	stamp   []int32
	dir     []changeDir
	epoch   int32
	changed int
}

// changeDir says whose decision a change of a community's (A_c, size) can
// alter (rule d).
type changeDir uint8

const (
	dirMembers    changeDir = 1 << iota // A_c rose: every alternative of a member gained
	dirNeighbours                       // A_c fell: c gained for the non-members next to it
	dirBoth       = dirMembers | dirNeighbours
)

// dirOf classifies one change of a community from (a0, s0) to (a1, s1). The
// gain of joining c, 2·(w−e)/m2 − 2·k·(A_c−aCur)/m2², never rises with A_c and
// never falls with aCur = A_cur − k — each floating-point operation in it is
// monotone — so a vertex all of whose gains were ≤ 0 can decide differently
// only if A_c fell for a neighbouring c or A rose for its own community. Sizes
// are read only by the minimum-label rule, as "== 1", and a community at size
// 0 or 1 is where membership and (A_c, size) change together: those mark both
// ways, as every change did before the rule had a direction.
func dirOf(a0 float64, s0 int64, a1 float64, s1 int64) changeDir {
	switch {
	case s0 <= 1 || s1 <= 1:
		if a0 != a1 || s0 != s1 {
			return dirBoth
		}
		return 0
	case a1 > a0:
		return dirMembers
	case a1 < a0:
		return dirNeighbours
	}
	return 0
}

// newFrontierState builds the phase's frontier state, re-slicing the arrays of
// old, the previous phase's (nil in a run's first phase).
func newFrontierState(st *phaseState, old *frontierState) *frontierState {
	if old == nil {
		old = &frontierState{cur: &frontier.Set{}, next: &frontier.Set{}, carryBufs: make([][]int64, st.cfg.Threads)}
		for w := range old.carryBufs {
			old.carryBufs[w] = make([]int64, 0, st.workerShare())
		}
	}
	for w := range old.carryBufs {
		old.carryBufs[w] = old.carryBufs[w][:0]
	}
	n, ghosts := st.dg.LocalN, len(st.dg.Ghosts)
	// The representation follows the set's size (frontier.RepAuto at
	// frontier.DefaultSparseFraction) unless a test pins it.
	rep := st.cfg.oracle.rep
	old.cur.Reset(n, rep, 0)
	old.next.Reset(n, rep, 0)
	fr := &frontierState{
		cur:       old.cur,
		next:      old.next,
		carryBufs: old.carryBufs,
		stamp:     resliceSlots(old.stamp, len(st.refs)),
		dir:       resliceSlots(old.dir, len(st.refs)),
		epoch:     1, // the zeroed stamps mean "unchanged"
	}

	// Reverse ghost adjacency by counting sort over the arcs' slots: ghost g's
	// locals are revAdj[revOff[g]:revOff[g+1]], revOff[g+1] serving as g's
	// write cursor until it reaches g+1's start.
	fr.revOff = reslice(old.revOff, ghosts+2)
	for _, s := range st.dg.Slot {
		if g := int64(s) - n; g >= 0 {
			fr.revOff[g+2]++
		}
	}
	for i := 2; i < len(fr.revOff); i++ {
		fr.revOff[i] += fr.revOff[i-1]
	}
	fr.revAdj = reslice(old.revAdj, int(fr.revOff[ghosts+1]))
	for lv := int64(0); lv < n; lv++ {
		for _, s := range st.dg.Slot[st.dg.Index[lv]:st.dg.Index[lv+1]] {
			if g := int64(s) - n; g >= 0 {
				fr.revAdj[fr.revOff[g+1]] = int32(lv)
				fr.revOff[g+1]++
			}
		}
	}
	return fr
}

// markLocalAdj dirties lv and its local neighbours (rules a and b).
func (st *phaseState) markLocalAdj(lv int64) {
	next, n := st.fr.next, st.dg.LocalN
	next.Mark(lv)
	for _, s := range st.dg.Slot[st.dg.Index[lv]:st.dg.Index[lv+1]] {
		if int64(s) < n {
			next.Mark(int64(s))
		}
	}
}

// markGhostAdj dirties the locals adjacent to ghost g (rule c).
func (fr *frontierState) markGhostAdj(g int32) {
	for _, lv := range fr.revAdj[fr.revOff[g]:fr.revOff[g+1]] {
		fr.next.Mark(int64(lv))
	}
}

// noteChanged records that community slot c changed in direction d (non-zero)
// since the last frontier build (rule d).
func (fr *frontierState) noteChanged(c int32, d changeDir) {
	if fr.stamp[c] != fr.epoch {
		fr.stamp[c] = fr.epoch
		fr.dir[c] = 0
		fr.changed++
	}
	fr.dir[c] |= d
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
		// Resolve "references a changed community" by membership: a local
		// member is marked itself when A_c rose; when it fell, the non-members
		// adjacent to a member are, through the CSR rows for local members and
		// the reverse ghost adjacency for ghost members.
		if fr.changed > 0 {
			n, next := st.dg.LocalN, fr.next
			for lv, c := range st.comm {
				if fr.stamp[c] != fr.epoch {
					continue
				}
				if fr.dir[c]&dirMembers != 0 {
					next.Mark(int64(lv))
				}
				if fr.dir[c]&dirNeighbours != 0 {
					for _, s := range st.dg.Slot[st.dg.Index[lv]:st.dg.Index[lv+1]] {
						if int64(s) < n && st.comm[s] != c {
							next.Mark(int64(s))
						}
					}
				}
			}
			for g, c := range st.ghostComm {
				if fr.stamp[c] == fr.epoch && fr.dir[c]&dirNeighbours != 0 {
					for _, lv := range fr.revAdj[fr.revOff[g]:fr.revOff[g+1]] {
						if st.comm[lv] != c {
							next.Mark(int64(lv))
						}
					}
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
