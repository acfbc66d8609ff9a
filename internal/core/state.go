package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/flat"
	"distlouvain/internal/mpi"
	"distlouvain/internal/obsv"
	"distlouvain/internal/par"
	"distlouvain/internal/seq"
)

// phaseState holds one rank's working set for a single Louvain phase. The
// community ID space coincides with the current graph's vertex ID space and
// shares its partition: rank owner(c) maintains the authoritative (A_c,
// size) entry for community c.
type phaseState struct {
	dg    *dgraph.DistGraph
	cfg   *Config
	phase int // phase index within the run (progress reporting)

	// ci holds the community of every endpoint a local arc can have,
	// addressed by dg.Slot, as a community slot (slots.go); comm and ghostComm
	// are views of it. After setup only setComm, setGhost and restore write it.
	ci        []int32
	comm      []int32 // ci[:LocalN]: community of each local vertex
	ghostComm []int32 // ci[LocalN:]: community of each ghost (parallel dg.Ghosts)

	// rowIntra[lv] caches the intra-community weight of local row lv, summed
	// in CSR order, for step (iv); rowsStale says no entry can be trusted
	// (see intraWeight).
	rowIntra  []float64
	rowsStale bool

	// Per community slot. cA/cSize hold (A_c, size): authoritative for the
	// owned slots [0, LocalN), the value of the last fetch for the others.
	// refs counts the endpoints in ci holding the slot — it is live iff
	// refs > 0 — and fetched is the fetch round that last refreshed a
	// non-owned slot (0: never). tail names the slots past the ghosts.
	cA      []float64
	cSize   []int64
	refs    []int32
	fetched []int32
	tail    flat.Index

	// fetchSeq numbers the fetch rounds from 2, so that "refreshed by the
	// previous round" (fetched == fetchSeq−1) is never true of a slot that was
	// never fetched. reqGIDs[q]/reqSlots[q] are the live communities owned by
	// rank q, ascending by global ID, and their slots; reqStale says some
	// non-owned slot went live or dead since they were built.
	fetchSeq int32
	reqStale bool
	reqGIDs  [][]int64
	reqSlots [][]int32
	liveBuf  []liveRef
	tailBuf  []liveRef // rebuildRequests' live tail slots, sorted before the merge
	ownerLcs []int64   // tellOwners' decode scratch

	// Ghost-exchange plumbing, built once per phase:
	// pushList[q] lists local vertex indices whose community rank q wants
	// every iteration; ghostSlots[q] lists the positions in dg.Ghosts that
	// rank q's reply fills (same order as the request this rank sent).
	pushList   [][]int64
	ghostSlots [][]int32
	lastSent   [][]int32 // per pushList entry, last transmitted community slot (−1: none)
	// ghostDenseFrames / ghostSparseFrames count the non-empty refresh
	// frames this rank encoded in each direction of the ghost refresh's
	// dense/sparse switch (diagnostics and the switch tests).
	ghostDenseFrames  int64
	ghostSparseFrames int64

	// ET state per local vertex.
	prob     []float64
	inactive []bool
	prevComm []int32
	seed     uint64

	// Kernel scratch, allocated once per run and reused every iteration of
	// every phase (see DESIGN "kernel memory layout"): accs[w] is worker w's
	// slot-addressed neighbor-community accumulator; moveBufs[w] is worker
	// w's move buffer; allMoves is the per-iteration move list gathered from
	// them when there is more than one;
	// stageMoves sums the per-iteration community deltas in accs[0] (ΔA) and
	// deltaSize (Δsize, per slot) and emits them into deltaBuf; arena backs the
	// encode buffers of the per-iteration exchanges, frames is the per-peer
	// table handed to them (no collective keeps it past its call), and
	// deltaFrames/prevCid are pushDeltas' per-owner encode state.
	accs        []rowAcc
	moveBufs    [][]move
	allMoves    []move
	deltaSize   []int64
	deltaBuf    []commDelta
	arena       mpi.Arena
	frames      [][]byte
	deltaFrames []*[]byte
	prevCid     []int64

	// sweepBody is the par.For body of sweep, built once per run so that a
	// sweep allocates no closure; it reads sweepIDs (the frontier's sorted
	// list, nil under the dense scan) and sweepIter.
	sweepBody func(w, lo, hi int)
	sweepIDs  []int64
	sweepIter int

	// coarse is Step 5's scratch (rebuild.go).
	coarse coarsening

	// Frontier-driven sweep state; nil under the full scan, the test oracle
	// (see frontier.go).
	fr *frontierState

	// Per-iteration sweep counters: touchedBufs[w] counts worker w's ΔQ
	// evaluations, returnsBufs[w] its moves back into the community the vertex
	// left one iteration earlier; iterTouched/iterFrontier/iterReturns, and
	// iterInactive (updateActivity's count for the next iteration), are the
	// rank-local sums that ride the modularity allreduce;
	// globalTouched/globalFrontier/globalReturns/globalInactive hold the
	// allreduced figures the phase records.
	touchedBufs, returnsBufs               []int64
	iterTouched, iterFrontier, iterReturns int64
	iterInactive                           int64
	globalTouched                          int64
	globalFrontier                         int64
	globalReturns                          int64
	globalInactive                         int64

	// lanes is the vector step (iv)'s allreduce carries (modularityAndMoves):
	// the last lane, ET's inactive count, only when Alpha > 0.
	lanes [6 + seq.SquareLimbs]float64

	// snap is the rollback snapshot, taken after each sweep; until the next one
	// its local half is where the previous iteration started (see snapshot).
	// damped says the return rule is in force for the rest of the phase
	// (iterate).
	snap   snapshot
	damped bool

	steps *StepTimes

	// afterFetch, when set, runs in every iteration between the community
	// fetch and the frontier build — the one moment the fetched values, the
	// request lists and the rule-(d) marks are all current. The slot
	// differential tests hang their oracles here; nothing else sets it.
	afterFetch func() error
}

// ErrMalformedFrame marks a protocol frame a rank refuses to apply: truncated,
// followed by trailing bytes, or naming a ghost position or ID the receiver
// does not hold. The wrapped message names the frame kind and the sending
// rank. All ranks of a world run the same binary, so this is corruption or a
// bug, never a version skew.
var ErrMalformedFrame = errors.New("core: malformed frame")

func malformed(frame string, from int, format string, args ...any) error {
	return fmt.Errorf("%w: %s from rank %d: %s", ErrMalformedFrame, frame, from, fmt.Sprintf(format, args...))
}

// tr returns the run's tracer (nil when tracing is off; obsv methods
// no-op on nil).
func (st *phaseState) tr() *obsv.Tracer { return st.cfg.Tracer }

func newPhaseState(dg *dgraph.DistGraph, cfg *Config, phaseIdx int, steps *StepTimes) (*phaseState, error) {
	st := &phaseState{cfg: cfg, steps: steps}
	if err := st.reset(dg, phaseIdx); err != nil {
		return nil, err
	}
	return st, nil
}

// reset makes st the state phase phaseIdx starts from on graph dg. A run keeps
// one phaseState: every slot-, vertex-, ghost- and peer-sized array of the
// phase before is re-sliced for this one rather than allocated again, so a run
// allocates its phase state about once, for its first and largest phase (DESIGN
// §12 "one phase's buffers per run"). Every other field starts from its zero
// value.
func (st *phaseState) reset(dg *dgraph.DistGraph, phaseIdx int) error {
	old := *st
	cfg := old.cfg
	n := dg.LocalN
	slots := int(n) + len(dg.Ghosts)
	p := dg.Comm.Size()
	ci := reslice(old.ci, slots)
	*st = phaseState{
		dg: dg, cfg: cfg, phase: phaseIdx, steps: old.steps,
		ci:          ci,
		comm:        ci[:n:n],
		ghostComm:   ci[n:],
		rowIntra:    reslice(old.rowIntra, int(n)),
		rowsStale:   true,
		cA:          resliceSlots(old.cA, slots),
		cSize:       resliceSlots(old.cSize, slots),
		refs:        resliceSlots(old.refs, slots),
		fetched:     resliceSlots(old.fetched, slots),
		tail:        old.tail,
		fetchSeq:    1,
		reqStale:    true,
		reqGIDs:     truncateEach(old.reqGIDs, p),
		reqSlots:    truncateEach(old.reqSlots, p),
		liveBuf:     old.liveBuf,
		tailBuf:     old.tailBuf,
		ownerLcs:    old.ownerLcs,
		pushList:    truncateEach(old.pushList, p),
		ghostSlots:  truncateEach(old.ghostSlots, p),
		lastSent:    truncateEach(old.lastSent, p),
		prob:        reslice(old.prob, int(n)),
		inactive:    reslice(old.inactive, int(n)),
		prevComm:    reslice(old.prevComm, int(n)),
		seed:        cfg.Seed ^ par.Mix64(uint64(phaseIdx)+0x5851f42d4c957f2d),
		accs:        old.accs,
		moveBufs:    old.moveBufs,
		allMoves:    old.allMoves,
		deltaSize:   old.deltaSize,
		deltaBuf:    old.deltaBuf,
		arena:       old.arena,
		frames:      old.frames,
		deltaFrames: old.deltaFrames,
		prevCid:     old.prevCid,
		sweepBody:   old.sweepBody,
		coarse:      old.coarse,
		touchedBufs: old.touchedBufs,
		returnsBufs: old.returnsBufs,
		snap: snapshot{
			ci:    reslice(old.snap.ci, slots),
			cA:    reslice(old.snap.cA, int(n)),
			cSize: reslice(old.snap.cSize, int(n)),
		},
	}
	st.tail.Reset()
	if st.accs == nil {
		st.accs = make([]rowAcc, cfg.Threads)
		st.moveBufs = make([][]move, cfg.Threads)
		st.touchedBufs = make([]int64, cfg.Threads)
		st.returnsBufs = make([]int64, cfg.Threads)
		st.frames = make([][]byte, p)
		st.deltaFrames = make([]*[]byte, p)
		st.prevCid = make([]int64, p)
		st.sweepBody = func(w, lo, hi int) { st.sweepRange(w, lo, hi, st.sweepIDs, st.sweepIter) }
	}
	// Initially every vertex is its own community — the identity on slots —
	// so ghost communities are derivable without communication (§IV-A).
	for e := range ci {
		ci[e] = int32(e)
		st.refs[e] = 1
	}
	copy(st.prevComm, st.comm)
	for lv := int64(0); lv < n; lv++ {
		st.cA[lv] = dg.K[lv]
		st.cSize[lv] = 1
		st.prob[lv] = 1
	}
	st.snapshot(&st.snap) // the identity: nothing is a return in iteration 1
	if !cfg.oracle.fullScan {
		st.fr = newFrontierState(st, old.fr)
	}
	return st.setupGhostLists()
}

// reslice returns buf cut to n entries, all zero, when its capacity allows,
// and a new slice of n otherwise.
func reslice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// truncateEach empties each of p per-peer lists, keeping its memory (p is fixed
// for a run; lists is nil before the first phase).
func truncateEach[T any](lists [][]T, p int) [][]T {
	if len(lists) != p {
		return make([][]T, p)
	}
	for q := range lists {
		lists[q] = lists[q][:0]
	}
	return lists
}

// setupGhostLists performs the one-time-per-phase exchange of Algorithm 4:
// each rank tells every owner which of its vertices it holds as ghosts.
func (st *phaseState) setupGhostLists() error {
	sp := st.tr().Begin(obsv.KindP2P, "ghost-setup")
	defer sp.End()
	// dg.Ghosts is sorted ascending and ownership ranges are contiguous, so
	// each owner's ghosts are one run of it: its request is a window of
	// dg.Ghosts ending at the ghost at hand. Every list below is sized from
	// the request it mirrors before it is filled.
	reqs := make([][]int64, st.dg.Comm.Size())
	for i, o := range st.dg.GhostOwner {
		reqs[o] = st.dg.Ghosts[i-len(reqs[o]) : i+1]
	}
	for o, req := range reqs {
		st.ghostSlots[o] = slices.Grow(st.ghostSlots[o], len(req))
	}
	for i, o := range st.dg.GhostOwner {
		st.ghostSlots[o] = append(st.ghostSlots[o], int32(i))
	}
	return st.tellOwners("ghost-list", reqs, func(q int, lcs []int64) error {
		st.pushList[q] = append(st.pushList[q], lcs...)
		last := slices.Grow(st.lastSent[q], len(lcs))
		for range lcs {
			last = append(last, -1) // force first send
		}
		st.lastSent[q] = last
		return nil
	})
}

// Ghost refresh frame markers (first byte of a non-empty refresh frame).
const (
	ghostFrameDense  = 0 // full snapshot follows, one community per push-list entry
	ghostFrameSparse = 1 // changed subset follows: positions + communities
)

// ghostSparseThreshold is the changed fraction of a peer's push list above
// which the refresh sends the dense snapshot instead of the sparse
// changed-entry list. Sparse entries cost position + value rather than value
// alone, so past roughly this density the dense frame is both smaller and
// cheaper to decode.
const ghostSparseThreshold = 0.25

// exchangeGhostComm is step (i) of Algorithm 3: owners push the latest
// community assignment of every vertex some rank holds as a ghost.
//
// Each peer frame carries only the entries whose community changed since the
// last send to that peer, switching ligra-style to the full snapshot when the
// changed fraction exceeds ghostSparseThreshold — early iterations
// (everything moves) pay dense prices once, converged tails pay per-change.
func (st *phaseState) exchangeGhostComm() error {
	sp := st.tr().Begin(obsv.KindP2P, "ghost-exchange")
	defer sp.End()
	t0 := time.Now()
	defer func() { st.steps.GhostComm += time.Since(t0) }()
	c := st.dg.Comm

	// Encode buffers come from the per-phase arena: after the first
	// iteration their capacities stabilize and this fast path allocates
	// nothing. Handing them straight to the collective is safe because
	// Transport.SendSegments copies before it returns (see mpi.Arena); the
	// copies land in frames this rank released after decoding the last exchange,
	// as the ones received here are released once applied.
	st.arena.Reset()
	send := st.frames
	for q := range send {
		bp := st.arena.Grab()
		*bp = st.encodeGhostDelta(*bp, q)
		send[q] = *bp
	}
	recv, err := c.Alltoall(send)
	if err != nil {
		return fmt.Errorf("core: ghost exchange: %w", err)
	}
	defer c.Release(recv...)
	for q := range recv {
		if err := st.decodeGhostDelta(q, recv[q]); err != nil {
			return err
		}
	}
	return nil
}

// encodeGhostDelta appends one refresh frame for peer q: a mode byte, then
// either the full snapshot (dense fallback) or the changed subset as
// (position, community) entries. The changed fraction against
// ghostSparseThreshold picks the representation per peer per iteration, so a
// rank whose frontier collapsed ships tiny sparse frames while a still-hot
// peer frame stays dense. lastSent is updated under both representations —
// the sparse test of the next iteration is always against what the peer
// actually holds.
func (st *phaseState) encodeGhostDelta(buf []byte, q int) []byte {
	push := st.pushList[q]
	if len(push) == 0 {
		return buf // nothing this peer wants; frame stays empty
	}
	last := st.lastSent[q]
	changed := 0
	for i, lv := range push {
		if st.comm[lv] != last[i] {
			changed++
		}
	}
	if float64(changed) > ghostSparseThreshold*float64(len(push)) {
		st.ghostDenseFrames++
		buf = append(buf, ghostFrameDense)
		for i, lv := range push {
			v := st.comm[lv]
			buf = mpi.AppendVarint(buf, st.gidOf(v))
			last[i] = v
		}
		return buf
	}
	st.ghostSparseFrames++
	buf = append(buf, ghostFrameSparse)
	// Positions are strictly increasing, so they travel as uvarint gaps;
	// communities as zigzag varints.
	buf = mpi.AppendUvarint(buf, uint64(changed))
	prev := int64(0)
	for i, lv := range push {
		if v := st.comm[lv]; v != last[i] {
			buf = mpi.AppendUvarint(buf, uint64(int64(i)-prev))
			buf = mpi.AppendVarint(buf, st.gidOf(v))
			prev = int64(i)
			last[i] = v
		}
	}
	return buf
}

// decodeGhostDelta applies one refresh frame from peer q.
func (st *phaseState) decodeGhostDelta(q int, data []byte) error {
	slots := st.ghostSlots[q]
	if len(data) == 0 {
		if len(slots) != 0 {
			return malformed("ghost frame", q, "empty, want %d entries", len(slots))
		}
		return nil
	}
	d := mpi.NewDecoder(data[1:])
	switch data[0] {
	case ghostFrameDense:
		for _, slot := range slots {
			v, err := d.Varint()
			if err != nil {
				return malformed("ghost frame", q, "dense: %v", err)
			}
			if err := st.setGhost(slot, v); err != nil {
				return err
			}
		}
	case ghostFrameSparse:
		n, err := d.Uvarint()
		if err != nil {
			return malformed("ghost frame", q, "sparse: %v", err)
		}
		pos := int64(0)
		for k := uint64(0); k < n; k++ {
			gap, err := d.Uvarint()
			if err != nil {
				return malformed("ghost frame", q, "sparse: %v", err)
			}
			pos += int64(gap)
			v, err := d.Varint()
			if err != nil {
				return malformed("ghost frame", q, "sparse: %v", err)
			}
			if pos < 0 || pos >= int64(len(slots)) {
				return malformed("ghost frame", q, "sparse: position %d outside [0,%d)", pos, len(slots))
			}
			if err := st.setGhost(slots[pos], v); err != nil {
				return err
			}
		}
	default:
		return malformed("ghost frame", q, "unknown mode %d", data[0])
	}
	if d.Remaining() != 0 {
		return malformed("ghost frame", q, "%d trailing bytes", d.Remaining())
	}
	return nil
}

// fetchCommunityInfo implements the pull half of step (ii)'s preparation:
// request the (A_c, size) entries of the live non-owned communities — the
// ones some local vertex or ghost is in, which covers every community a local
// neighbourhood can reference — from their owners, and store the replies in
// the slots' cA/cSize. The request lists are rebuilt only when the live set
// changed. With a frontier, a reply marks its slot changed (rule d) when the
// slot was not refreshed by the previous round or the values differ in a way
// dirOf says a decision can read.
func (st *phaseState) fetchCommunityInfo() error {
	sp := st.tr().Begin(obsv.KindP2P, "community-fetch")
	defer sp.End()
	t0 := time.Now()
	defer func() { st.steps.CommunityComm += time.Since(t0) }()

	if st.reqStale {
		st.rebuildRequests()
	}
	st.fetchSeq++
	// Replies carry (A_c, size) per cid, in request order. A_c stays fixed64
	// (varints cannot shorten a float and bit-exactness is non-negotiable);
	// member counts are small, so they travel as varints.
	answers, err := st.askOwners("community-info", st.reqGIDs, func(_ int, lcs []int64, buf []byte) ([]byte, error) {
		for _, lc := range lcs {
			buf = mpi.AppendFloat64(buf, st.cA[lc])
			buf = mpi.AppendVarint(buf, st.cSize[lc])
		}
		return buf, nil
	})
	if err != nil {
		return err
	}
	defer st.dg.Comm.Release(answers...)
	for q := range answers {
		d := mpi.NewDecoder(answers[q])
		for _, s := range st.reqSlots[q] {
			a, err := d.Float64()
			if err != nil {
				return malformed("community-info reply", q, "%v", err)
			}
			size, err := d.Varint()
			if err != nil {
				return malformed("community-info reply", q, "%v", err)
			}
			if st.fr != nil {
				d := dirBoth // not refreshed by the previous round: nothing to compare with
				if st.fetched[s] == st.fetchSeq-1 {
					d = dirOf(st.cA[s], st.cSize[s], a, size)
				}
				if d != 0 {
					st.fr.noteChanged(s, d)
				}
			}
			st.cA[s], st.cSize[s], st.fetched[s] = a, size, st.fetchSeq
		}
		if d.Remaining() != 0 {
			return malformed("community-info reply", q, "%d trailing bytes", d.Remaining())
		}
	}
	return nil
}

// delta is the (ΔA, Δsize) a community accumulated this iteration.
type delta struct {
	a    float64
	size int64
}

// commDelta is one community's (ΔA, Δsize) of an iteration, tagged with its
// ID. stageMoves emits these sorted by cid, which fixes the apply and
// encode order — a Go map here would randomize the order deltas reach
// owners and the byte layout of every delta message run-to-run.
type commDelta struct {
	cid  int64
	a    float64
	size int64
}

// pushDeltas is step (iii) of Algorithm 3: updated information on ghost
// communities travels to their owners; owners fold in the deltas for their
// local communities. deltas must be sorted by community ID (stageMoves
// guarantees it), so every rank's wire payload is in canonical ascending-cid
// order, byte for byte the same every run. The order the owners fold them in
// — the sweep's assignment updates, then the locally owned deltas, then the
// remote frames in rank order — reaches no A_c: every weight is an integer,
// so every fold is exact.
func (st *phaseState) pushDeltas(deltas []commDelta, moves []move) error {
	sp := st.tr().Begin(obsv.KindP2P, "community-push")
	defer sp.End()
	t0 := time.Now()
	defer func() { st.steps.CommunityComm += time.Since(t0) }()
	st.arena.Reset()
	send, bufs, prevCid := st.frames, st.deltaFrames, st.prevCid
	clear(send)
	clear(bufs)
	clear(prevCid)
	// Entries: varint cid gap from the previous entry to the same owner
	// (ascending across the frame), fixed64 ΔA, varint Δsize.
	for _, d := range deltas {
		if st.dg.IsLocal(d.cid) {
			continue // folded below
		}
		o := st.dg.Part.Owner(d.cid)
		if bufs[o] == nil {
			bufs[o] = st.arena.Grab()
		}
		*bufs[o] = mpi.AppendVarint(*bufs[o], d.cid-prevCid[o])
		*bufs[o] = mpi.AppendFloat64(*bufs[o], d.a)
		*bufs[o] = mpi.AppendVarint(*bufs[o], d.size)
		prevCid[o] = d.cid
	}
	for o, bp := range bufs {
		if bp != nil {
			send[o] = *bp
		}
	}
	recv, err := st.dg.Comm.Alltoall(send)
	if err != nil {
		return fmt.Errorf("core: community delta push: %w", err)
	}
	defer st.dg.Comm.Release(recv...)

	for _, mv := range moves {
		st.setComm(mv.lv, mv.to)
	}
	if st.fr != nil {
		st.markMoves(moves)
	}
	for _, d := range deltas {
		if st.dg.IsLocal(d.cid) {
			st.applyDelta(d.cid, delta{a: d.a, size: d.size})
		}
	}
	for q := range recv {
		d := mpi.NewDecoder(recv[q])
		prev := int64(0)
		for d.Remaining() > 0 {
			gap, err := d.Varint()
			if err != nil {
				return malformed("delta frame", q, "%v", err)
			}
			cid := prev + gap
			prev = cid
			da, err := d.Float64()
			if err != nil {
				return malformed("delta frame", q, "%v", err)
			}
			dsize, err := d.Varint()
			if err != nil {
				return malformed("delta frame", q, "%v", err)
			}
			if !st.dg.IsLocal(cid) {
				return malformed("delta frame", q, "non-owned community %d", cid)
			}
			st.applyDelta(cid, delta{a: da, size: dsize})
		}
	}
	return nil
}

func (st *phaseState) applyDelta(cid int64, d delta) {
	lc := cid - st.dg.Base
	a0, s0 := st.cA[lc], st.cSize[lc]
	st.cA[lc] += d.a
	st.cSize[lc] += d.size
	if st.fr != nil {
		// Frontier dirty rule (d), owned side: the values evaluators read
		// changed, so whoever the direction of the change can concern
		// re-evaluates.
		if d := dirOf(a0, s0, st.cA[lc], st.cSize[lc]); d != 0 {
			st.fr.noteChanged(int32(lc), d)
		}
	}
}

// intraWeight returns the intra-community weight of this rank's arcs: the
// sum, in ascending vertex order, of the per-row subtotals in rowIntra. A row's
// subtotal depends on the communities of the vertex and of its neighbours,
// local and ghost; every write to one of those since the previous call went
// through markMoves or setGhost, which mark the row in fr.next (dirty rules
// a–c; rule e's carry-overs ride along harmlessly, and rule d is folded in
// only later, by buildFrontier). So only the rows in fr.next are recomputed —
// every row when there is no frontier, on a phase's first call and after a
// rollback. A cached subtotal is bit for bit what recomputing it would give,
// which keeps frontier and full-scan runs identical on float weights too.
func (st *phaseState) intraWeight() float64 {
	if st.fr == nil || st.rowsStale {
		for lv := int64(0); lv < st.dg.LocalN; lv++ {
			st.recomputeRow(lv)
		}
		st.rowsStale = false
	} else {
		st.fr.next.Each(st.recomputeRow)
	}
	var sum float64
	for _, w := range st.rowIntra {
		sum += w
	}
	return sum
}

func (st *phaseState) recomputeRow(lv int64) {
	dg := st.dg
	slots, ws := dg.Row(lv)
	cv := st.comm[lv]
	var w float64
	for i, s := range slots {
		if st.ci[s] == cv {
			w += ws[i]
		}
	}
	st.rowIntra[lv] = w
}

// modularity is step (iv): every rank contributes the intra-community
// weight of its local arcs (using current local and once-per-iteration
// ghost information — the paper's "lag of community update") plus the
// squared incident weights of its owned communities; one allreduce yields
// the global Q. Every lane is an integer sum, exact in any order: E, the
// limbs of the 128-bit Σ A_c² (seq.SquareSum), and — so that the
// per-iteration migration rate and ETC's count cost no extra collective —
// the local move count, the sweep's touched-vertex, frontier-size and return
// counters and, under ET, the inactive count.
func (st *phaseState) modularityAndMoves(localMoves int64) (float64, int64, error) {
	msp := st.tr().Begin(obsv.KindStep, "modularity-compute")
	tc := time.Now()
	eSum := st.intraWeight()
	var aSq seq.SquareSum
	for lc := int64(0); lc < st.dg.LocalN; lc++ {
		aSq.Add(st.cA[lc])
	}
	st.steps.Compute += time.Since(tc)
	msp.End()

	ta := time.Now()
	const inactiveLane = 5 + seq.SquareLimbs
	st.lanes = [len(st.lanes)]float64{eSum, float64(localMoves), float64(st.iterTouched), float64(st.iterFrontier), float64(st.iterReturns)}
	aSq.Limbs(st.lanes[5:inactiveLane])
	lanes := st.lanes[:inactiveLane]
	if st.cfg.Alpha > 0 {
		st.lanes[inactiveLane] = float64(st.iterInactive)
		lanes = st.lanes[:]
	}
	out, err := st.dg.Comm.AllreduceFloat64s(lanes, mpi.OpSum)
	st.steps.Allreduce += time.Since(ta)
	if err != nil {
		return 0, 0, fmt.Errorf("core: modularity allreduce: %w", err)
	}
	moves := int64(out[1])
	st.globalTouched = int64(out[2])
	st.globalFrontier = int64(out[3])
	st.globalReturns = int64(out[4])
	if st.cfg.Alpha > 0 {
		st.globalInactive = int64(out[inactiveLane])
	}
	return seq.ModularityOf(out[0], st.dg.M2, seq.SquareSumOfLimbs(out[5:inactiveLane])), moves, nil
}
