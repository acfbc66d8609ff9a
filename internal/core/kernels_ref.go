package core

import (
	"sort"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/par"
)

// Reference kernels: the original map-based implementations of the ΔQ sweep
// accumulator and the coarse-arc aggregator, kept as oracles for the
// differential tests and benchmarks (Config.oracle.refKernels routes a run
// through them). They work on global IDs throughout — vertices and
// communities — and must match the shipped kernels move for move and — where
// the shipped kernel promises it — bit for bit; kernels_test.go enforces both.

// cinfo is the per-community state a ΔQ evaluation reads: the community's
// total incident weight A_c and its member count.
type cinfo struct {
	a    float64
	size int64
}

// commOf resolves the community (a global ID) of a global vertex without
// dg.Slot — an ownership test, then a search of the ghost table — so a run
// through the reference kernels, which read their targets out of the slots
// with Target, also cross-checks the slot space the shipped kernels index.
func (st *phaseState) commOf(g int64) int64 {
	if st.dg.IsLocal(g) {
		return st.gidOf(st.comm[g-st.dg.Base])
	}
	i, _ := st.dg.GhostSlot(g)
	return st.gidOf(st.ghostComm[i])
}

// infoOf resolves (A_c, size) of a community by global ID: the owned table,
// or what this iteration's fetch brought for a non-owned one — nothing when
// the fetch did not cover it.
func (st *phaseState) infoOf(cid int64) (cinfo, bool) {
	c, ok := st.findSlot(cid)
	if !ok || (int64(c) >= st.dg.LocalN && st.fetched[c] != st.fetchSeq) {
		return cinfo{}, false
	}
	return cinfo{a: st.cA[c], size: st.cSize[c]}, true
}

// evaluateVertexRef is evaluateVertex with a map scratch accumulator. The
// accumulation order over neighbors is identical (CSR order), and the
// best-move scan is iteration-order independent (the tie rule, the
// minimum-label rule and the return rule are spelled out here, on global IDs,
// rather than shared with the slot kernel, so the differential tests compare
// two statements of each), so the verdict is always identical to the slot
// kernel's.
func (st *phaseState) evaluateVertexRef(lv int64, scratch map[int64]float64) (mv move, ok, refused bool) {
	m2 := st.dg.M2
	cv := st.gidOf(st.comm[lv])
	clear(scratch)
	g := st.dg.Global(lv)
	row, ws := st.dg.Row(lv)
	for i, s := range row {
		to := st.dg.Target(s)
		if to == g {
			continue // self loop moves with the vertex
		}
		scratch[st.commOf(to)] += ws[i]
	}
	if len(scratch) == 0 {
		return move{}, false, false
	}
	eCur := scratch[cv]
	kv := st.dg.K[lv]
	curInfo, found := st.infoOf(cv)
	if !found {
		return move{}, false, false // stale reference; skip this vertex for now
	}
	aCur := curInfo.a - kv
	best := cv
	bestGain := 0.0
	var bestInfo cinfo
	for cid, evc := range scratch {
		if cid == cv {
			continue
		}
		ci, ok := st.infoOf(cid)
		if !ok {
			continue
		}
		gain := 2*(evc-eCur)/m2 - 2*kv*(ci.a-aCur)/(m2*m2)
		if gain > bestGain || (gain == bestGain && gain > 0 && par.Mix64(uint64(cid)) < par.Mix64(uint64(best))) {
			bestGain = gain
			best = cid
			bestInfo = ci
		}
	}
	if best == cv || bestGain <= 0 {
		return move{}, false, false
	}
	if curInfo.size == 1 && bestInfo.size == 1 && best > cv {
		return move{}, false, true
	}
	// Damped: no way back to the community left one iteration ago unless its
	// label is the smaller one.
	if left := st.gidOf(st.snap.comm[lv]); st.damped && best == left && best > cv {
		return move{}, false, true
	}
	to, _ := st.findSlot(best) // infoOf found it
	return move{lv: lv, from: st.comm[lv], to: to}, true, false
}

// sweepRangeRef is sweepRange over evaluateVertexRef: the same vertices offered
// in the same order, the same carry-overs and the same counters.
func (st *phaseState) sweepRangeRef(w, lo, hi int, ids []int64, iter int) {
	fr := st.fr
	scratch := make(map[int64]float64, 64)
	for i := lo; i < hi; i++ {
		lv := int64(i)
		if ids != nil {
			lv = ids[i]
		}
		if fr != nil && fr.scanDense && !fr.cur.Has(lv) {
			continue
		}
		if !st.isActive(lv, iter) {
			if fr != nil && !st.inactive[lv] {
				fr.carryBufs[w] = append(fr.carryBufs[w], lv)
			}
			continue
		}
		st.touchedBufs[w]++
		mv, ok, refused := st.evaluateVertexRef(lv, scratch)
		switch {
		case ok:
			st.moveBufs[w] = append(st.moveBufs[w], mv)
			if st.gidOf(mv.to) == st.gidOf(st.snap.comm[lv]) {
				st.returnsBufs[w]++
			}
		case refused:
			st.prevComm[lv] = refusedMark
			if fr != nil {
				fr.carryBufs[w] = append(fr.carryBufs[w], lv)
			}
		}
	}
}

// coarseArcsMap is the sequential map-based Step 5 aggregator: it resolves
// every endpoint through commOf and findSlot, then reads bySlot (renumber's
// table), instead of the shipped kernel's community slots. Emission is sorted
// by (From, To) so hash-map range order never reaches the wire; each pair is
// emitted once and its sum accumulates in CSR visit order — ascending lv, then
// arc order — which is the order coarseArcs sums it in at any thread count, so
// the two agree bit for bit.
func (st *phaseState) coarseArcsMap(bySlot []int64) []dgraph.Arc {
	type pair struct{ a, b int64 }
	newOf := func(cid int64) int64 {
		s, _ := st.findSlot(cid)
		return bySlot[s]
	}
	acc := make(map[pair]float64)
	for lv := int64(0); lv < st.dg.LocalN; lv++ {
		a := newOf(st.gidOf(st.comm[lv]))
		row, ws := st.dg.Row(lv)
		for i, s := range row {
			acc[pair{a, newOf(st.commOf(st.dg.Target(s)))}] += ws[i]
		}
	}
	arcs := make([]dgraph.Arc, 0, len(acc))
	for pr, w := range acc {
		arcs = append(arcs, dgraph.Arc{From: pr.a, To: pr.b, W: w})
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].From != arcs[j].From {
			return arcs[i].From < arcs[j].From
		}
		return arcs[i].To < arcs[j].To
	})
	return arcs
}
