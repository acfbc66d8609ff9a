package core

import (
	"fmt"
	"slices"
	"time"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/gio"
	"distlouvain/internal/mpi"
	"distlouvain/internal/obsv"
	"distlouvain/internal/par"
)

// renumberOwned is Steps 1–2 of rebuild: a table addressed like st.refs in
// which the owned communities that still have members (the community table is
// authoritative: size > 0 means some vertex, anywhere, is assigned to it) are
// numbered 0, 1, … in ID order, and the dead ones and every non-owned slot
// hold −1. It returns the count of survivors too. The table is the run's
// (coarsening.renumbered), valid until the next rebuild.
func (st *phaseState) renumberOwned() ([]int64, int64) {
	bySlot := reslice(st.coarse.renumbered, len(st.refs))
	st.coarse.renumbered = bySlot
	var survivors int64
	for s := range bySlot {
		bySlot[s] = -1
		if int64(s) < st.dg.LocalN && st.cSize[s] > 0 {
			bySlot[s] = survivors
			survivors++
		}
	}
	return bySlot, survivors
}

// rebuild performs the distributed graph reconstruction of Fig. 1 at the
// end of a phase. It returns the coarse graph and the new community of every
// live community slot (bySlot, addressed like st.refs; a dead slot's entry is
// meaningless), which flatten hands on to the original vertices. Outside the
// map oracle, the coarse graph is assembled into st.dg's arrays: on return
// st.dg keeps only its scalar fields, which is all flatten reads of it.
//
// Steps (numbering as in the paper):
//  1. count surviving local communities and renumber them from 0;
//  2. drop owned community IDs no longer associated with any vertex;
//  3. renumber globally via an exclusive prefix sum;
//  4. resolve new IDs for old communities referenced remotely;
//  5. build partial new edge lists from local adjacencies;
//  6. redistribute so every rank owns an equal share of new vertices;
//  7. rebuild CSR index/edge arrays.
func (st *phaseState) rebuild() (*dgraph.DistGraph, []int64, error) {
	sp := st.tr().Begin(obsv.KindStep, "rebuild")
	defer sp.End()
	t0 := time.Now()
	defer func() { st.steps.Rebuild += time.Since(t0) }()

	bySlot, totalNew, err := st.renumber()
	if err != nil {
		return nil, nil, err
	}

	// Step 5: partial coarse edge lists, written straight into the frames of
	// Step 6's shuffle. Every local fine arc v→u maps to the coarse arc
	// new(comm(v))→new(comm(u)); parallel arcs merge. Both kernels emit each
	// coarse pair exactly once per rank, and the assembly places arcs stably,
	// so a pair's parallel arcs sum in sender rank order: the coarse graph
	// depends on the fine graph and the rank count, never on the thread count
	// or the emission order within a rank.
	//
	// Steps 6–7: redistribute to an even vertex split and rebuild the CSR
	// (the shuffle routes each arc to the owner of its source). Once Step 5
	// has written its frames nothing reads the fine graph's arrays again —
	// flatten reads only its scalar fields and st.comm — so the coarse graph
	// is assembled into them, and the shuffle is the one that assembled the
	// fine graph — dgraph.Build's, BuildFromArcs' or the previous rebuild's —
	// segment buffers and assembly scratch included.
	if st.cfg.oracle.refKernels {
		ndg, err := dgraph.BuildFromArcs(st.dg.Comm, totalNew, st.coarseArcsMap(bySlot))
		return ndg, bySlot, err
	}
	sh := st.dg.Reshuffle(totalNew, st.cfg.Threads, true)
	st.coarseArcs(bySlot, sh)
	ndg, err := sh.Exchange(st.dg)
	if err != nil {
		return nil, nil, err
	}
	return ndg, bySlot, nil
}

// renumber is Steps 1–4 of rebuild: the new community of every live community
// slot and the number of new communities (collective). It rejects a live slot
// whose community is empty or was never resolved.
func (st *phaseState) renumber() ([]int64, int64, error) {
	c := st.dg.Comm

	// Steps 1–2: surviving owned communities, renumbered locally.
	bySlot, survivors := st.renumberOwned()

	// Step 3: global renumbering by exclusive prefix sum.
	ta := time.Now()
	myBase, err := c.ExscanInt64(survivors)
	if err != nil {
		return nil, 0, err
	}
	totalNew, err := c.AllreduceInt64(survivors, mpi.OpSum)
	st.steps.Allreduce += time.Since(ta)
	if err != nil {
		return nil, 0, err
	}
	for s, n := range bySlot[:st.dg.LocalN] {
		if n >= 0 {
			bySlot[s] = myBase + n
		}
	}

	// Step 4: the new IDs of the live non-owned communities — what local
	// vertices and ghosts reference, and what the fetch asks for. Survivor
	// renumbering is order-preserving, so the reply to an ascending request is
	// ascending too: it travels as varint gaps, one per requested ID.
	if st.reqStale {
		st.rebuildRequests()
	}
	replies, err := st.askOwners("renumber", st.reqGIDs, func(q int, lcs []int64, buf []byte) ([]byte, error) {
		prev := int64(0)
		for _, lc := range lcs {
			n := bySlot[lc]
			if n < 0 {
				return buf, malformed("renumber request", q, "empty community %d", st.dg.Base+lc)
			}
			buf = mpi.AppendVarint(buf, n-prev)
			prev = n
		}
		return buf, nil
	})
	if err != nil {
		return nil, 0, err
	}
	defer c.Release(replies...)
	for q, slots := range st.reqSlots {
		d := mpi.NewDecoder(replies[q])
		n := int64(0)
		for _, s := range slots {
			gap, err := d.Varint()
			if err != nil {
				return nil, 0, malformed("renumber reply", q, "%v", err)
			}
			if n += gap; n < 0 || n >= totalNew {
				return nil, 0, malformed("renumber reply", q, "new ID %d outside [0,%d)", n, totalNew)
			}
			bySlot[s] = n
		}
		if d.Remaining() != 0 {
			return nil, 0, malformed("renumber reply", q, "%d trailing bytes", d.Remaining())
		}
	}
	for s, r := range st.refs {
		if r > 0 && bySlot[s] < 0 {
			return nil, 0, fmt.Errorf("core: referenced community %d is empty or was never resolved", st.gidOf(int32(s)))
		}
	}
	return bySlot, totalNew, nil
}

// flatten advances the original-vertex assignment one level (collective):
// labels[i], a vertex of this phase's graph, becomes the new ID of that
// vertex's community — bySlot, rebuild's table, at the vertex's owner, so the
// label comes back final. Serial equivalent: labels[i] = new(comm[labels[i]]).
func (st *phaseState) flatten(bySlot, labels []int64) error {
	cs := &st.coarse
	k := 0 // the remote labels, counted so that their list grows once
	for _, g := range labels {
		if !st.dg.IsLocal(g) {
			k++
		}
	}
	refs := slices.Grow(cs.remote[:0], k)
	for _, g := range labels {
		if !st.dg.IsLocal(g) {
			refs = append(refs, g)
		}
	}
	cs.remote = refs
	reqs := truncateEach(cs.byOwner, st.dg.Comm.Size())
	cs.byOwner = reqs
	remote := sortedRemote(st.dg.GlobalN, refs, reqs)
	replies, err := st.askOwners("comm-lookup", reqs, func(_ int, lcs []int64, buf []byte) ([]byte, error) {
		for _, lc := range lcs {
			buf = mpi.AppendVarint(buf, bySlot[st.comm[lc]])
		}
		return buf, nil
	})
	if err != nil {
		return err
	}
	defer st.dg.Comm.Release(replies...)
	newOfRemote := slices.Grow(cs.newOfRemote[:0], len(remote)) // parallel to remote
	for q, req := range reqs {
		d := mpi.NewDecoder(replies[q])
		for range req {
			v, err := d.Varint()
			if err != nil {
				return malformed("comm-lookup reply", q, "%v", err)
			}
			newOfRemote = append(newOfRemote, v)
		}
		if d.Remaining() != 0 {
			return malformed("comm-lookup reply", q, "%d trailing bytes", d.Remaining())
		}
	}
	cs.newOfRemote = newOfRemote
	for i, g := range labels {
		if st.dg.IsLocal(g) {
			labels[i] = bySlot[st.comm[g-st.dg.Base]]
		} else {
			k, _ := slices.BinarySearch(remote, g)
			labels[i] = newOfRemote[k]
		}
	}
	return nil
}

// sortedRemote sorts and dedupes ids (none owned by this rank) in place and
// cuts the result into per-owner request lists (cutByOwner).
func sortedRemote(n int64, ids []int64, byOwner [][]int64) []int64 {
	slices.Sort(ids)
	all := slices.Compact(ids)
	cutByOwner(n, all, byOwner)
	return all
}

// cutByOwner cuts the ascending IDs of [0, n) into per-owner lists, written
// into byOwner (one entry per rank): ownership ranges are contiguous, so each
// rank's share is one run of ids.
func cutByOwner(n int64, ids []int64, byOwner [][]int64) {
	for q := range byOwner {
		_, hi := gio.SegmentRange(n, q, len(byOwner))
		k, _ := slices.BinarySearch(ids, hi)
		byOwner[q], ids = ids[:k], ids[k:]
	}
}

// coarseArcs is Step 5 grouped by source community, written into the frames
// of sh. One stable counting sort lists the local vertices by the community
// slot they sit in (slots are dense, so the histogram is an array; members
// stay in ascending lv). Then, source community by source community, a worker
// walks the members' arcs once through its rowAcc at the target's community
// slot ci[Slot[i]] — the sweep's accumulator, one epoch per source community —
// summing W per target, and puts (new(src), new(key), w[key]) over the
// first-seen key list to the owner of new(src). No hash, no table sized by the
// fine arcs, no intermediate arc list, random access confined to one
// community's neighbourhood.
//
// Workers split the slot range, and each writes segments of its own to every
// owner, so a coarse pair belongs to exactly one of them: it leaves the rank
// once, its weight accumulated over ascending lv and then arc order whatever
// Threads is, and every frame, its writers' segments in worker order, holds
// its arcs in slot order. coarseArcsMap is the oracle. It returns the number
// of coarse arcs.
//
// bySlot is renumber's table: the new community of every live slot.
func (st *phaseState) coarseArcs(bySlot []int64, sh *dgraph.Shuffle) int {
	dg, cs := st.dg, &st.coarse
	slots := len(st.refs)
	// Slot s's members are members[first[s]:first[s+1]].
	first := reslice(cs.first, slots+2)
	for _, c := range st.comm {
		first[c+2]++
	}
	for s := 2; s < len(first); s++ {
		first[s] += first[s-1]
	}
	members := reslice(cs.members, int(dg.LocalN))
	for lv, c := range st.comm {
		members[first[c+1]] = int32(lv) // first[s+1] is slot s's cursor until it reaches slot s+1's start
		first[c+1]++
	}

	// Worker w takes slots cuts[w]..cuts[w+1], cut where the running member
	// arc count passes w/nw of the total.
	nw := st.cfg.Threads
	cuts := reslice(cs.cuts, nw+1)
	for w, s, run := 1, 0, int64(0); w < nw; w++ {
		for ; s < slots && run*int64(nw) < dg.Index[dg.LocalN]*int64(w); s++ {
			for _, lv := range members[first[s]:first[s+1]] {
				run += dg.Index[lv+1] - dg.Index[lv]
			}
		}
		cuts[w] = s
	}
	cuts[nw] = slots

	cs.first, cs.members, cs.cuts, cs.bySlot, cs.sh = first, members, cuts, bySlot, sh
	if cs.write == nil {
		cs.write = func(_, lo, hi int) {
			for w := lo; w < hi; w++ {
				st.aggregateSlots(w)
			}
		}
	}
	st.fitAccs()
	par.For(nw, nw, cs.write)
	cs.bySlot, cs.sh = nil, nil
	return sh.Len()
}

// coarsening is the rebuild's state, kept for the run like the phase state
// and re-sliced by every rebuild: renumberOwned's table (renumbered);
// flatten's remote labels, their new IDs and its per-owner request lists;
// coarseArcs' source-community members and worker slot ranges, what the call
// at hand reads (bySlot) and writes (sh), and the par.For body of its walk,
// built once so that an aggregation allocates no closure.
type coarsening struct {
	renumbered          []int64
	remote, newOfRemote []int64
	byOwner             [][]int64
	first, members      []int32
	cuts                []int
	bySlot              []int64
	sh                  *dgraph.Shuffle
	write               func(w, lo, hi int)
}

// aggregateSlots is worker w's walk over its source communities: it sums each
// one's arcs per target community and puts the coarse arcs in first-seen
// target order.
func (st *phaseState) aggregateSlots(w int) {
	dg, ci, cs := st.dg, st.ci, &st.coarse
	acc, out := &st.accs[w], cs.sh.Writer(w)
	first, members, bySlot := cs.first, cs.members, cs.bySlot
	for s := cs.cuts[w]; s < cs.cuts[w+1]; s++ {
		if first[s] == first[s+1] {
			continue
		}
		acc.next()
		sum, stamp, epoch, keys := acc.w, acc.stamp, acc.epoch, acc.keys
		for _, lv := range members[first[s]:first[s+1]] {
			row, ws := dg.Row(int64(lv))
			for i, t := range row {
				c := ci[t]
				if stamp[c] != epoch {
					stamp[c] = epoch
					sum[c] = 0
					keys = append(keys, c)
				}
				sum[c] += ws[i]
			}
		}
		acc.keys = keys
		q, from := cs.sh.Owner(bySlot[s]), bySlot[s]
		for _, c := range keys {
			out.Put(q, from, bySlot[c], sum[c])
		}
	}
}
