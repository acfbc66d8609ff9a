package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"distlouvain/internal/dgraph"
)

// Community slots. dgraph.Slot gives every endpoint a local arc can have a
// dense number; for the length of a phase every community this rank refers to
// gets one too, and all per-community state is an array indexed by it:
//
//	[0, LocalN)                       owned community Base+s
//	[LocalN, LocalN+len(Ghosts))      the community named after Ghosts[s−LocalN]
//	[LocalN+len(Ghosts), …)           the tail: communities named after vertices
//	                                  this rank holds neither as local nor as
//	                                  ghost, numbered in order of first reference
//
// so a phase starts with the identity ci[e] = e and nothing to look up. A slot
// is never renumbered or reused within the phase, which makes slot equality
// the same thing as community equality. A global ID becomes a slot in one
// place — setGhost, when a ghost entry actually changes; a local mover copies
// its target's slot from the neighbour it saw it on — and a slot becomes a
// global ID again (gidOf) only at the wire, in rebuild and in the result.
// Memory is O(LocalN + ghosts + communities actually referenced), never
// O(GlobalN).

// checkSlotSpace fails typed, like dgraph's vertex slots do, when the
// community slot space would no longer fit an int32.
func checkSlotSpace(slots int) error {
	if slots >= math.MaxInt32 {
		return fmt.Errorf("%w: %d community slots in use", dgraph.ErrSlotSpace, slots)
	}
	return nil
}

// gidOf returns the global ID of the community in slot c.
func (st *phaseState) gidOf(c int32) int64 {
	s := int64(c)
	if s < st.dg.LocalN {
		return st.dg.Base + s
	}
	if s -= st.dg.LocalN; s < int64(len(st.dg.Ghosts)) {
		return st.dg.Ghosts[s]
	}
	return st.tail.Key(int(s) - len(st.dg.Ghosts))
}

// findSlot returns the slot of community gid, if it has one.
func (st *phaseState) findSlot(gid int64) (int32, bool) {
	if st.dg.IsLocal(gid) {
		return int32(gid - st.dg.Base), true
	}
	if g, ok := st.dg.GhostSlot(gid); ok {
		return int32(st.dg.LocalN) + int32(g), true
	}
	if t, ok := st.tail.Find(gid); ok {
		return int32(st.dg.LocalN) + int32(len(st.dg.Ghosts)+t), true
	}
	return 0, false
}

// tailRoom is how many tail slots the per-slot arrays of a phase with the given
// held slot count (LocalN + len(Ghosts)) are allocated room for, past their
// length, so that slotOf appends in place. A fixed rule of the slot count, not
// a knob: the tail holds 260 and 1 086 slots at 2 ranks of R-MAT 17 against
// about 96 k held, and 45–50 on LFR 100k against about 100 k. A tail that
// outgrows the room still appends, at append's price.
func tailRoom(slots int) int { return slots/16 + 64 }

// resliceSlots is reslice for a per-slot array: slots entries, all zero, with
// room for the tail behind them.
func resliceSlots[T any](buf []T, slots int) []T {
	if cap(buf) < slots+tailRoom(slots) {
		return make([]T, slots, slots+tailRoom(slots))
	}
	return reslice(buf, slots)
}

// fitSlots extends buf with zero entries to cover a slot space of the given
// size; when it has to allocate, it leaves room for the tail as resliceSlots
// does.
func fitSlots[T any](buf []T, slots int) []T {
	k := slots - len(buf)
	if k <= 0 {
		return buf
	}
	if cap(buf) < slots {
		buf = slices.Grow(buf, slots+tailRoom(slots)-len(buf))
	}
	return append(buf, make([]T, k)...)
}

// slotOf returns the slot of community gid, appending a tail slot (and one
// zero entry to every per-slot array, in the room resliceSlots left) when this
// rank never referred to it.
func (st *phaseState) slotOf(gid int64) (int32, error) {
	if c, ok := st.findSlot(gid); ok {
		return c, nil
	}
	if err := checkSlotSpace(len(st.refs)); err != nil {
		return 0, err
	}
	st.tail.Intern(gid)
	st.cA = append(st.cA, 0)
	st.cSize = append(st.cSize, 0)
	st.refs = append(st.refs, 0)
	st.fetched = append(st.fetched, 0)
	if st.fr != nil {
		st.fr.stamp = append(st.fr.stamp, 0)
		st.fr.dir = append(st.fr.dir, 0)
	}
	return int32(len(st.refs) - 1), nil
}

// assign puts endpoint e into community slot c. Together with restore it is
// the only writer of ci after phase setup, so refs always counts the
// endpoints holding each slot; a non-owned slot gaining its first or losing
// its last reference changes what the next fetch has to ask for.
func (st *phaseState) assign(e, c int32) {
	old := st.ci[e]
	if old == c {
		return
	}
	st.ci[e] = c
	n := int32(st.dg.LocalN)
	if st.refs[old]--; st.refs[old] == 0 && old >= n {
		st.reqStale = true
	}
	if st.refs[c]++; st.refs[c] == 1 && c >= n {
		st.reqStale = true
	}
}

// setComm moves local vertex lv into community slot c.
func (st *phaseState) setComm(lv int64, c int32) { st.assign(int32(lv), c) }

// setGhost writes one ghost-table entry from the wire, dirtying the ghost's
// local adjacency when the value actually changed (frontier rule c). Every
// ghost-table write after phase setup routes through here; an unchanged entry
// — most of a dense frame — costs one comparison and no lookup.
func (st *phaseState) setGhost(g int32, gid int64) error {
	if st.gidOf(st.ghostComm[g]) == gid {
		return nil
	}
	c, err := st.slotOf(gid)
	if err != nil {
		return err
	}
	st.assign(int32(st.dg.LocalN)+g, c)
	if st.fr != nil {
		st.fr.markGhostAdj(g)
	}
	return nil
}

// recountRefs recomputes refs from ci in one pass (after restore rewrote it
// wholesale).
func (st *phaseState) recountRefs() {
	clear(st.refs)
	for _, c := range st.ci {
		st.refs[c]++
	}
	st.reqStale = true
}

// liveRef is one live non-owned community in rebuildRequests' list.
type liveRef struct {
	gid  int64
	slot int32
}

// rebuildRequests recomputes, per owner, the non-owned communities some
// endpoint currently holds (refs > 0), ascending by global ID: reqGIDs is what
// the fetch puts on the wire and reqSlots where each reply entry lands. The
// ghost slots come in global-ID order already (Ghosts is sorted) and the tail
// slots in order of first reference, so only the live tail is sorted, then
// merged into the live ghosts. Ownership ranges are contiguous, so each
// owner's share is one run of the merged list. An ID outside every range
// (only a corrupt ghost frame can name one) goes to the first or last rank,
// which rejects the request. Every list is sized before it is filled, from
// one count of the live slots.
func (st *phaseState) rebuildRequests() {
	n := st.dg.LocalN
	held := n + int64(len(st.dg.Ghosts))
	ghosts := st.refs[n:held]
	tail := st.tailBuf[:0]
	for i, r := range st.refs[held:] {
		if r > 0 {
			s := int32(held) + int32(i)
			tail = append(tail, liveRef{gid: st.gidOf(s), slot: s})
		}
	}
	slices.SortFunc(tail, func(a, b liveRef) int { return cmp.Compare(a.gid, b.gid) })
	st.tailBuf = tail
	count := len(tail)
	for _, r := range ghosts {
		if r > 0 {
			count++
		}
	}
	live := slices.Grow(st.liveBuf[:0], count)
	j := 0
	for i, r := range ghosts {
		if r == 0 {
			continue
		}
		g := st.dg.Ghosts[i]
		for ; j < len(tail) && tail[j].gid < g; j++ {
			live = append(live, tail[j])
		}
		live = append(live, liveRef{gid: g, slot: int32(n) + int32(i)})
	}
	live = append(live, tail[j:]...)
	st.liveBuf = live
	for q := range st.reqGIDs {
		k := len(live)
		if q < len(st.reqGIDs)-1 {
			_, hi := st.dg.Part.Range(q)
			k, _ = slices.BinarySearchFunc(live, hi, func(r liveRef, hi int64) int { return cmp.Compare(r.gid, hi) })
		}
		gids, slots := slices.Grow(st.reqGIDs[q][:0], k), slices.Grow(st.reqSlots[q][:0], k)
		for _, r := range live[:k] {
			gids = append(gids, r.gid)
			slots = append(slots, r.slot)
		}
		st.reqGIDs[q], st.reqSlots[q] = gids, slots
		live = live[k:]
	}
	st.reqStale = false
}

// rowAcc is one sweep worker's accumulator of e(v→C) over a row: a weight per
// community slot, direct-addressed. An entry is valid only while its stamp
// equals the epoch, so starting the next row is epoch++; keys lists the slots
// stamped this epoch in first-seen order, which is the order the best-move
// scan walks them in.
type rowAcc struct {
	w     []float64
	stamp []uint32
	epoch uint32
	keys  []int32
}

// fit extends the accumulator to cover a slot space of the given size.
func (a *rowAcc) fit(slots int) {
	a.w = fitSlots(a.w, slots)
	a.stamp = fitSlots(a.stamp, slots)
}

// next starts a new row.
func (a *rowAcc) next() {
	a.keys = a.keys[:0]
	a.epoch++
	if a.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(a.stamp)
		a.epoch = 1
	}
}
