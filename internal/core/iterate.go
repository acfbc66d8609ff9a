package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"distlouvain/internal/mpi"
	"distlouvain/internal/obsv"
	"distlouvain/internal/par"
)

// tieBefore is the tie rule of the ΔQ arg-max: of two communities offering
// exactly the same gain, the one whose global ID hashes smaller wins. The
// conventional rule — smallest ID — makes a synchronous sweep chase labels on
// a naturally numbered uniform mesh: every singleton i picks C(i−b), whose
// only member has just left for C(i−2b), for thousands of iterations (DESIGN
// §8). The hash is unseeded and taken on the global ID, never the slot, so the
// choice is independent of Seed, partition, rank and thread count and restart
// history; Mix64 is a bijection, so distinct communities never tie again.
func tieBefore(a, b int64) bool {
	return par.Mix64(uint64(a)) < par.Mix64(uint64(b))
}

// dampedReturnShare: a phase is damped from the iteration after the first one
// whose returns are at least this share of its moves, a return being a move
// back into the community the vertex left one iteration earlier. A constant of
// the method, like the paper's 2 % and 90 %, not a knob. Its measurement:
// undamped, phase 0 of gen.LFR(DefaultLFR(100000, 0.3, 1)) at 2 ranks moves
// [50153 64579 73811 68392 50588 34458 24295 18020 … 5883 5882] vertices in its
// 26 iterations, of which [0 4565 23842 26150 22587 19720 16549 13976 … 5871
// 5869] are returns — 7 % in iteration 2, 57 % in iteration 6, 78 % in
// iteration 8, 99.8 % at the end: a period-2 flip-flop that only ΔQ < τ ends.
// Half is crossed in iteration 6 there. R-MAT 17's phase 1 crosses it too
// ([0 412 7665 16102] of [25770 22778 20543 20662]) but in its last iteration,
// the one whose swaps make Q drop and end the phase — which is what keeps the
// rule off the workload an always-on rule slows down (DESIGN §8 "returns").
const dampedReturnShare = 0.5

// refusedMark is what a refused vertex's prevComm entry is overwritten with: no
// slot, so updateActivity sees "changed community" and keeps P(v) = 1.
const refusedMark int32 = -1

// move is one vertex's decision within an iteration.
type move struct {
	lv       int64 // local vertex index
	from, to int32 // community slots
}

// updateActivity applies the ET probability decay of Equation 3 before
// iteration iter (1-based) and returns the local inactive count. With
// Alpha == 0 every vertex stays active. A vertex a rule refused in the previous
// iteration (refusedMark) wanted to move and was held back, which is not the
// stability the decay rewards: it restarts at P = 1 like a vertex that moved.
func (st *phaseState) updateActivity(iter int) int64 {
	if st.cfg.Alpha <= 0 {
		return 0
	}
	if iter >= 2 {
		par.For(int(st.dg.LocalN), st.cfg.Threads, func(_, lo, hi int) {
			for lv := lo; lv < hi; lv++ {
				if st.inactive[lv] {
					continue
				}
				if st.comm[lv] == st.prevComm[lv] {
					st.prob[lv] *= 1 - st.cfg.Alpha
					if st.prob[lv] < InactiveCutoff {
						st.inactive[lv] = true
					}
				} else {
					st.prob[lv] = 1
				}
			}
		})
	}
	copy(st.prevComm, st.comm)
	return par.ReduceInt64(int(st.dg.LocalN), st.cfg.Threads, func(_, lo, hi int) int64 {
		var c int64
		for lv := lo; lv < hi; lv++ {
			if st.inactive[lv] {
				c++
			}
		}
		return c
	})
}

// isActive combines the permanent inactive label with the per-iteration
// coin flip at probability prob[lv]. The flip hashes (seed, global vertex,
// iteration) so the outcome is identical however vertices are distributed.
func (st *phaseState) isActive(lv int64, iter int) bool {
	if st.inactive[lv] {
		return false
	}
	p := st.prob[lv]
	if p >= 1 {
		return true
	}
	h := par.Mix64(st.seed ^ uint64(st.dg.Global(lv))*0x9e3779b97f4a7c15 ^ uint64(iter)*0xd1b54a32d192ed03)
	return float64(h>>11)/(1<<53) < p
}

// evaluateVertex computes lv's ΔQ-maximising move against the current
// local state plus this iteration's ghost/remote snapshots (lines 7–8 of
// Algorithm 3). Returns false when lv should stay put.
//
// acc is the worker's accumulator (phase-lived, epoch-reset per vertex),
// direct-addressed by community slot. A neighbor's community slot is
// st.ci[Slot[i]] and its (A_c, size) are st.cA/st.cSize at that slot — loads,
// owned or not, with no hash and no ownership branch; every slot an arc can
// name is live, so its cached values are this iteration's. Neighbor weights
// accumulate per community in CSR order and the candidates are scanned in
// first-seen order — what the map reference kernel and the flat table before
// this did — so every e(v→C) sum is bit-identical to the reference, and the
// best-move selection is iteration-order independent anyway (strict > on
// gains, tieBefore on ties), so the chosen moves are identical too.
// evaluateVertexRef in kernels_ref.go is the map oracle, by global ID, the
// differential tests compare against.
func (st *phaseState) evaluateVertex(lv int64, acc *rowAcc) (mv move, ok, refused bool) {
	m2 := st.dg.M2
	cv := st.comm[lv]
	acc.next()
	slots, ws := st.dg.Row(lv)
	ci, w, stamp, epoch, keys := st.ci, acc.w, acc.stamp, acc.epoch, acc.keys
	for i, s := range slots {
		if int64(s) == lv {
			continue // self loop moves with the vertex
		}
		c := ci[s]
		if stamp[c] != epoch {
			stamp[c] = epoch
			w[c] = 0
			keys = append(keys, c)
		}
		w[c] += ws[i]
	}
	acc.keys = keys
	if len(keys) == 0 {
		return move{}, false, false
	}
	var eCur float64
	if stamp[cv] == epoch {
		eCur = w[cv]
	}
	kv := st.dg.K[lv]
	aCur := st.cA[cv] - kv
	best := cv
	bestGain := 0.0
	for _, c := range keys {
		if c == cv {
			continue
		}
		gain := 2*(w[c]-eCur)/m2 - 2*kv*(st.cA[c]-aCur)/(m2*m2)
		if gain > bestGain || (gain == bestGain && gain > 0 && tieBefore(st.gidOf(c), st.gidOf(best))) {
			bestGain = gain
			best = c
		}
	}
	if best == cv || bestGain <= 0 {
		return move{}, false, false
	}
	// Minimum-label rule: a singleton only joins another singleton with a
	// smaller label, killing synchronous swap cycles. Raw IDs on purpose:
	// hashing this rule too costs LFR quality (DESIGN §8).
	if st.cSize[cv] == 1 && st.cSize[best] == 1 && st.gidOf(best) > st.gidOf(cv) {
		return move{}, false, true
	}
	// Return rule, the same direction for communities of any size: in a damped
	// phase a vertex goes back to the community it left one iteration ago
	// (st.snap.comm still holds where the previous iteration started) only
	// towards the smaller label. Of two vertices swapping across a boundary for
	// ever, each on the other's stale label, exactly one now moves and they end
	// together; the other stays put rather than take its second-best.
	if st.damped && best == st.snap.comm[lv] && st.gidOf(best) > st.gidOf(cv) {
		return move{}, false, true
	}
	return move{lv: lv, from: cv, to: best}, true, false
}

// sweep is step (ii) of Algorithm 3: every active local vertex evaluates
// its best move, double-buffered across the whole sweep. It returns the
// chosen moves without applying them.
//
// With a frontier (st.fr non-nil), only the active set is offered to the
// workers: under the sparse direction the chunks walk cur.Sorted()
// directly; under the dense direction the full range is chunked and
// filtered by the bitmap. Both directions visit surviving vertices in
// ascending local order — the same order as the full scan — so the
// gathered move list, and with it every float accumulation downstream, is
// bit-identical to the full scan's under either representation.
//
// Each worker reuses its run-lived accumulator and move buffer, the latter
// made on first use at the most its chunk of LocalN can move. Every moveBuf is
// truncated BEFORE the parallel region: par.For does not spawn workers whose
// chunk is empty, so a worker that ran last iteration but not this one would
// otherwise leak stale moves into the gather below. (Carry buffers avoid the
// same hazard by being drained after every merge.) With one worker there is
// nothing to gather: the returned list is worker 0's buffer itself, valid
// until the next sweep.
func (st *phaseState) sweep(iter int) []move {
	sp := st.tr().Begin(obsv.KindStep, "sweep")
	defer sp.End()
	t0 := time.Now()
	defer func() { st.steps.Compute += time.Since(t0) }()
	nw := st.cfg.Threads
	for w, ms := range st.moveBufs {
		if ms == nil {
			ms = make([]move, 0, st.workerShare())
		}
		st.moveBufs[w] = ms[:0]
	}
	clear(st.touchedBufs)
	clear(st.returnsBufs)
	st.fitAccs()
	fr := st.fr
	st.sweepIDs, st.sweepIter = nil, iter
	count := int(st.dg.LocalN)
	if fr != nil && !fr.scanDense {
		st.sweepIDs = fr.cur.Sorted()
		count = len(st.sweepIDs)
	}
	par.For(count, nw, st.sweepBody)
	all := st.moveBufs[0]
	if nw > 1 {
		total := 0
		for _, ms := range st.moveBufs {
			total += len(ms)
		}
		all = slices.Grow(st.allMoves[:0], total)
		for _, ms := range st.moveBufs {
			all = append(all, ms...)
		}
		st.allMoves = all
	}
	st.iterTouched, st.iterReturns = 0, 0
	for w, c := range st.touchedBufs {
		st.iterTouched += c
		st.iterReturns += st.returnsBufs[w]
	}
	if fr != nil {
		// Merge the coin-skipped and the refused carry-overs (dirty rule e)
		// into the next frontier single-threaded, draining each buffer so a
		// worker idle next iteration cannot replay stale entries.
		for w := range fr.carryBufs {
			for _, lv := range fr.carryBufs[w] {
				fr.next.Mark(lv)
			}
			fr.carryBufs[w] = fr.carryBufs[w][:0]
		}
		st.iterFrontier = fr.cur.Len()
	} else {
		st.iterFrontier = st.dg.LocalN
	}
	sp.SetCount(st.iterTouched)
	return all
}

// workerShare is the most vertices one sweep worker's chunk can hold: what its
// move and carry-over buffers are made for.
func (st *phaseState) workerShare() int {
	nw := st.cfg.Threads
	return (int(st.dg.LocalN) + nw - 1) / nw
}

// fitAccs extends every worker's accumulator to the current slot space (the
// tail only grows between sweeps, in setGhost).
func (st *phaseState) fitAccs() {
	for w := range st.accs {
		st.accs[w].fit(len(st.refs))
	}
}

// sweepRange evaluates vertices ids[lo:hi] — or lo..hi themselves when ids is
// nil — on worker w, appending chosen moves to the worker's buffer and
// counting evaluations, and the moves that are returns, into the worker's
// counters. Frontier members the ET coin skips are carried into the next
// frontier — a stale vertex stays dirty until actually evaluated — while
// permanently inactive vertices drop out, matching the full scan (which never
// evaluates those again either). A vertex a rule refused is carried too — what
// it was refused against (snap.comm, the phase being damped) changes without
// any neighbour changing — and keeps P = 1 (refusedMark).
// sweepRangeRef is the same loop over the map reference kernel.
func (st *phaseState) sweepRange(w, lo, hi int, ids []int64, iter int) {
	if st.cfg.oracle.refKernels {
		st.sweepRangeRef(w, lo, hi, ids, iter)
		return
	}
	moves := st.moveBufs[w]
	fr := st.fr
	var carry []int64
	if fr != nil {
		carry = fr.carryBufs[w]
	}
	var touched, returns int64
	acc, prev := &st.accs[w], st.snap.comm
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
				carry = append(carry, lv)
			}
			continue
		}
		touched++
		mv, ok, refused := st.evaluateVertex(lv, acc)
		switch {
		case ok:
			moves = append(moves, mv)
			if mv.to == prev[lv] {
				returns++
			}
		case refused:
			st.prevComm[lv] = refusedMark
			if fr != nil {
				carry = append(carry, lv)
			}
		}
	}
	st.moveBufs[w] = moves
	st.touchedBufs[w] += touched
	st.returnsBufs[w] += returns
	if fr != nil {
		fr.carryBufs[w] = carry
	}
}

// stageMoves is step (iii)'s local preparation: accumulate the (ΔA, Δsize)
// each source/destination community incurred (line 9 of Algorithm 3). It
// deliberately does NOT touch st.comm — pushDeltas writes the assignment
// updates once the delta frames are exchanged. The moves name community slots; the deltas leave here under global
// IDs, which is what the owners and the wire order by.
//
// The sums are slot-addressed: ΔA in worker 0's rowAcc (the sweep is over, so
// it is free), Δsize in deltaSize, one epoch per iteration, the touched slots
// in its key list. Each community's ΔA is added up in move order, as any
// accumulator keyed by community does it. The deltas are emitted sorted by
// community ID, so pushDeltas applies and encodes them in an order independent
// of accumulation order (see commDelta) — without a comparison sort over all of
// them: the touched slots sorted by number are the owned run (IDs Base+slot),
// the ghost run (ascending IDs, as dg.Ghosts is) and the tail, and only the
// tail, numbered by first reference, needs sorting by ID before it is merged
// into the ghost run and the owned run is put where its IDs belong.
func (st *phaseState) stageMoves(moves []move) []commDelta {
	acc := &st.accs[0]
	acc.next()
	bound := min(2*len(moves), len(st.refs)) // distinct slots the moves can touch
	acc.keys = slices.Grow(acc.keys, bound)
	st.deltaSize = fitSlots(st.deltaSize, len(st.refs))
	da, ds := acc.w, st.deltaSize
	add := func(c int32, a float64, size int64) {
		if acc.stamp[c] != acc.epoch {
			acc.stamp[c] = acc.epoch
			da[c], ds[c] = 0, 0
			acc.keys = append(acc.keys, c)
		}
		da[c] += a
		ds[c] += size
	}
	for _, mv := range moves {
		kv := st.dg.K[mv.lv]
		add(mv.from, -kv, -1)
		add(mv.to, kv, 1)
	}

	keys := acc.keys
	slices.Sort(keys)
	n, held := int32(st.dg.LocalN), int32(st.dg.LocalN)+int32(len(st.dg.Ghosts))
	owned, rest := splitAt(keys, n)
	ghosts, tail := splitAt(rest, held)
	slices.SortFunc(tail, func(a, b int32) int { return cmp.Compare(st.gidOf(a), st.gidOf(b)) })
	out := slices.Grow(st.deltaBuf[:0], len(keys))
	emit := func(c int32) { out = append(out, commDelta{cid: st.gidOf(c), a: da[c], size: ds[c]}) }
	for len(ghosts) > 0 || len(tail) > 0 {
		var c int32
		if len(tail) == 0 || (len(ghosts) > 0 && st.gidOf(ghosts[0]) < st.gidOf(tail[0])) {
			c, ghosts = ghosts[0], ghosts[1:]
		} else {
			c, tail = tail[0], tail[1:]
		}
		if len(owned) > 0 && st.gidOf(c) > st.dg.Base {
			for _, o := range owned {
				emit(o)
			}
			owned = nil
		}
		emit(c)
	}
	for _, o := range owned {
		emit(o)
	}
	st.deltaBuf = out
	return out
}

// splitAt cuts the ascending keys into those below k and the rest.
func splitAt(keys []int32, k int32) ([]int32, []int32) {
	i, _ := slices.BinarySearch(keys, k)
	return keys[:i], keys[i:]
}

// snapshot captures the state an iteration may need to roll back: local
// assignments and the owned community table. Ghost tables are not included
// — they reflect prior iterations' (kept) moves. It is taken after the sweep,
// which writes none of it, so that during the sweep snap.comm is still where
// the PREVIOUS iteration started: the community a vertex that moved then has
// left, which is all the return rule needs to know.
type snapshot struct {
	comm  []int32
	cA    []float64
	cSize []int64
}

// snapshot copies the state into s; reset sizes st.snap's arrays.
func (st *phaseState) snapshot(s *snapshot) {
	copy(s.comm, st.comm)
	copy(s.cA, st.cA) // the owned prefix: s.cA is LocalN long
	copy(s.cSize, st.cSize)
}

func (st *phaseState) restore(s *snapshot) {
	st.rowsStale = true // the reverted vertices are marked nowhere
	copy(st.comm, s.comm)
	copy(st.cA, s.cA)
	copy(st.cSize, s.cSize)
	st.recountRefs()
}

// iterate runs the Louvain iterations of one phase (the while-loop of
// Algorithm 3) with threshold tau, and returns the phase statistics. On
// return st.comm holds the phase's final assignment.
func (st *phaseState) iterate(tau float64) (PhaseStat, error) {
	stat := PhaseStat{Vertices: st.dg.GlobalN, Tau: tau}
	prevQ := math.Inf(-1)
	globalN := st.dg.GlobalN

	for {
		if st.cfg.MaxIterations > 0 && stat.Iterations >= st.cfg.MaxIterations {
			stat.Exit = ExitMaxIter
			break
		}
		stat.Iterations++

		// The iteration span is closed explicitly on every break path; a
		// mid-iteration error leaves it open so the tracer's Path still
		// names the iteration a failed collective belonged to.
		st.tr().SetPos(st.phase, stat.Iterations)
		isp := st.tr().Begin(obsv.KindIteration, "iteration")

		localInactive := st.updateActivity(stat.Iterations)
		if st.cfg.ETC {
			// The ETC variant's extra communication: a global count of
			// inactive vertices; ≥ DefaultETCExit ends the phase.
			ta := time.Now()
			globalInactive, err := st.dg.Comm.AllreduceInt64(localInactive, mpi.OpSum)
			st.steps.Allreduce += time.Since(ta)
			if err != nil {
				return stat, fmt.Errorf("core: ETC inactivity allreduce: %w", err)
			}
			if globalN > 0 {
				// Guard the empty-graph case: 0/0 is NaN, and NaN >= the exit
				// fraction is false, which would silently disable the ETC exit
				// and poison the reported fraction.
				stat.InactiveFrac = float64(globalInactive) / float64(globalN)
			}
			if stat.InactiveFrac >= DefaultETCExit {
				stat.Iterations-- // this iteration did not run
				stat.Exit = ExitETC
				isp.End()
				break
			}
		}

		// (ii-prep) pull (A_c, size) for referenced remote communities.
		// Ghost communities already reflect the previous iteration's moves:
		// the identity assignment needs no exchange (§IV-A) and every
		// completed iteration ends with one.
		if err := st.fetchCommunityInfo(); err != nil {
			return stat, err
		}
		if st.afterFetch != nil {
			if err := st.afterFetch(); err != nil {
				return stat, err
			}
		}

		// Finalise the active set for this iteration's sweep: rule (d)
		// against the fresh community info, then swap in the set rules
		// (a)–(c) and (e) accumulated during the previous iteration.
		st.buildFrontier(stat.Iterations)
		if st.damped && stat.DampedFrom == 0 {
			stat.DampedFrom = stat.Iterations
			dsp := st.tr().Begin(obsv.KindStep, "damped") // marks the iteration for the §V-A report
			dsp.End()
		}

		// (ii) local ΔQ sweep; (iii) apply + push community updates.
		moves := st.sweep(stat.Iterations)
		st.snapshot(&st.snap)
		if err := st.pushDeltas(st.stageMoves(moves), moves); err != nil {
			return stat, err
		}
		// (i') refresh ghost vertex communities with this iteration's moves.
		// Exchanging here instead of at the loop top gives the next sweep
		// the same post-previous-iteration view it always had, but lets the
		// modularity below see consistent (post-move) assignments on BOTH
		// endpoints of cross-rank edges. That makes Q exact — and, for
		// integer edge weights, independent of the vertex partition as long
		// as every sum stays exact (the binding one is Σ A_c² < 2⁵³, i.e.
		// 2m below about 9.5·10⁷), which is what lets a checkpoint resumed
		// on a different rank count retrace the original trajectory bit for
		// bit.
		if err := st.exchangeGhostComm(); err != nil {
			return stat, err
		}

		// (iv) global modularity (+ the iteration's migration count).
		q, globalMoves, err := st.modularityAndMoves(int64(len(moves)))
		if err != nil {
			return stat, err
		}
		stat.QTrajectory = append(stat.QTrajectory, q)
		stat.MovesTrajectory = append(stat.MovesTrajectory, globalMoves)
		stat.ReturnsTrajectory = append(stat.ReturnsTrajectory, st.globalReturns)
		isp.SetCount(st.globalReturns)
		stat.TouchedTrajectory = append(stat.TouchedTrajectory, st.globalTouched)
		stat.FrontierTrajectory = append(stat.FrontierTrajectory, st.globalFrontier)
		st.cfg.progress(ProgressEvent{Kind: ProgressIteration, Phase: st.phase, Iteration: stat.Iterations, Modularity: q, Vertices: globalN})

		// (v) threshold check.
		if q-prevQ <= tau {
			if !math.IsInf(prevQ, -1) && q < prevQ {
				// Joint moves decreased Q; every rank reverts this
				// iteration (the decision derives from the allreduced q,
				// so all ranks agree).
				st.restore(&st.snap)
			} else {
				prevQ = q
			}
			stat.Exit = ExitTau
			isp.End()
			break
		}
		prevQ = q
		// Arm the return rule on evidence (allreduced counts, so every rank
		// agrees, whatever the partition): most of what moved came back.
		if globalMoves > 0 && float64(st.globalReturns) >= dampedReturnShare*float64(globalMoves) {
			st.damped = true
		}
		isp.End()
	}

	if math.IsInf(prevQ, -1) {
		// Zero completed iterations (e.g. immediate ETC exit): measure
		// the current assignment.
		q, err := st.modularity()
		if err != nil {
			return stat, err
		}
		prevQ = q
	}
	stat.Modularity = prevQ

	if st.cfg.Alpha > 0 && !st.cfg.ETC {
		// Plain ET never counts inactives during the run (that is ETC's
		// extra communication step); gather the figure once per phase for
		// reporting, outside the algorithm's decision path.
		var localInactive int64
		for _, in := range st.inactive {
			if in {
				localInactive++
			}
		}
		globalInactive, err := st.dg.Comm.AllreduceInt64(localInactive, mpi.OpSum)
		if err != nil {
			return stat, fmt.Errorf("core: inactivity allreduce: %w", err)
		}
		if globalN > 0 {
			stat.InactiveFrac = float64(globalInactive) / float64(globalN)
		}
	}

	// Rebuild needs current ghost communities for edge relabeling.
	if err := st.exchangeGhostComm(); err != nil {
		return stat, err
	}
	return stat, nil
}
