package shared

import (
	"math"
	"time"

	"distlouvain/internal/graph"
	"distlouvain/internal/par"
	"distlouvain/internal/seq"
)

// Run executes the multi-phase shared-memory Louvain method. A phase is applied
// to the result only when it gains more than Tau over the previous one;
// otherwise the run ends on the previous phase's assignment. Result.Phases
// lists that last, discarded phase too, whose modularity may be lower than the
// result's (TestDiscardedLastPhaseLosesNothing).
func Run(g *graph.CSR, opt Options) *Result {
	start := time.Now()
	if opt.Threads <= 0 {
		opt.Threads = par.DefaultThreads()
	}
	if opt.Tau <= 0 {
		opt.Tau = DefaultTau
	}
	res := &Result{Comm: make([]int64, g.N)}
	for v := range res.Comm {
		res.Comm[v] = int64(v)
	}
	if g.N == 0 {
		res.Runtime = time.Since(start)
		return res
	}

	cur := g
	prevQ := math.Inf(-1)
	for phase := 0; opt.MaxPhases == 0 || phase < opt.MaxPhases; phase++ {
		init := singletons(cur.N)
		if phase == 0 && opt.VertexFollowing {
			init = FollowVertices(cur)
		}
		comm, stat := onePhase(cur, init, opt, uint64(phase))
		res.Phases = append(res.Phases, stat)
		res.TotalIterations += stat.Iterations
		if stat.Modularity-prevQ <= opt.Tau {
			break
		}
		prevQ = stat.Modularity
		coarse, renumber := seq.Coarsen(cur, comm)
		for v := range res.Comm {
			res.Comm[v] = renumber[comm[res.Comm[v]]]
		}
		if coarse.N == cur.N {
			break
		}
		cur = coarse
	}

	densify(res.Comm)
	res.Communities = seq.CommunityCount(res.Comm)
	res.Modularity = seq.Modularity(g, res.Comm)
	res.Runtime = time.Since(start)
	return res
}

func singletons(n int64) []int64 {
	comm := make([]int64, n)
	for v := range comm {
		comm[v] = int64(v)
	}
	return comm
}

func densify(comm []int64) {
	renumber := make(map[int64]int64)
	var next int64
	for _, c := range comm {
		if _, ok := renumber[c]; !ok {
			renumber[c] = next
			next++
		}
	}
	for v := range comm {
		comm[v] = renumber[comm[v]]
	}
}

// phaseState is the per-phase working set of the sweep.
type phaseState struct {
	g        *graph.CSR
	opt      Options
	n        int64
	m2       float64
	comm     []int64
	k        []float64
	aTot     []float64
	commSize []int64

	// ET bookkeeping.
	prob     []float64
	inactive []bool
	prevComm []int64 // community at iteration k-1 entry (for the ET test); refusedMark after a refusal
	seed     uint64

	// Return rule (core's, DESIGN §8 "returns"): left is the assignment the
	// previous iteration started from — during a sweep, so the community a
	// vertex that moved then has left; between sweeps, what a rollback
	// restores — and damped says returns go only towards the smaller label for
	// the rest of the phase.
	left   []int64
	damped bool
}

// refusedMark overwrites the prevComm entry of a vertex a rule refused, so that
// updateActivity keeps its P(v) at 1: it wanted to move, which is not the
// stability ET's decay rewards (core does the same).
const refusedMark int64 = -1

func newPhaseState(g *graph.CSR, init []int64, opt Options, seed uint64) *phaseState {
	n := g.N
	st := &phaseState{
		g: g, opt: opt, n: n, m2: g.TotalWeight(),
		comm:     make([]int64, n),
		k:        make([]float64, n),
		aTot:     make([]float64, n),
		commSize: make([]int64, n),
		prob:     make([]float64, n),
		inactive: make([]bool, n),
		prevComm: make([]int64, n),
		seed:     seed,
		left:     make([]int64, n),
	}
	copy(st.comm, init)
	copy(st.prevComm, init)
	copy(st.left, init)
	par.For(int(n), opt.Threads, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			st.k[v] = g.WeightedDegree(int64(v))
			st.prob[v] = 1
		}
	})
	for v := int64(0); v < n; v++ {
		st.aTot[st.comm[v]] += st.k[v]
		st.commSize[st.comm[v]]++
	}
	return st
}

// updateActivity applies the ET probability decay before iteration iter
// (1-based) and returns the number of inactive vertices. With Alpha == 0 it
// is a no-op: every probability stays 1.
func (st *phaseState) updateActivity(iter int) int64 {
	if st.opt.Alpha <= 0 {
		return 0
	}
	if iter >= 2 {
		par.For(int(st.n), st.opt.Threads, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				if st.inactive[v] {
					continue
				}
				if st.comm[v] == st.prevComm[v] {
					st.prob[v] *= 1 - st.opt.Alpha
					if st.prob[v] < InactiveCutoff {
						st.inactive[v] = true
					}
				} else {
					st.prob[v] = 1
				}
			}
		})
	}
	copy(st.prevComm, st.comm)
	return par.ReduceInt64(int(st.n), st.opt.Threads, func(_, lo, hi int) int64 {
		var c int64
		for v := lo; v < hi; v++ {
			if st.inactive[v] {
				c++
			}
		}
		return c
	})
}

// isActive decides whether v participates in iteration iter, combining the
// permanent inactive label with the per-iteration coin flip at probability
// prob[v]. The flip is a pure hash of (seed, v, iter) so results are
// independent of scheduling.
func (st *phaseState) isActive(v int64, iter int) bool {
	if st.inactive[v] {
		return false
	}
	p := st.prob[v]
	if p >= 1 {
		return true
	}
	h := par.Mix64(st.seed ^ uint64(v)*0x9e3779b97f4a7c15 ^ uint64(iter)*0xd1b54a32d192ed03)
	return float64(h>>11)/(1<<53) < p
}

// bestMove evaluates v's neighbouring communities against the provided
// community/degree snapshot and returns the ΔQ-maximising target (or v's
// current community when no strictly positive gain exists, or when a rule
// refuses the move — refused is then true). scratch is the caller's reusable
// accumulation map.
func (st *phaseState) bestMove(v int64, commSnap []int64, aTotSnap []float64, scratch *neighMap) (target int64, refused bool) {
	cv := commSnap[v]
	scratch.reset()
	for _, e := range st.g.Neighbors(v) {
		if e.To == v {
			continue
		}
		scratch.add(commSnap[e.To], e.W)
	}
	eCur := scratch.get(cv)
	kv := st.k[v]
	aCur := aTotSnap[cv] - kv
	best := cv
	bestGain := 0.0
	for _, c := range scratch.keys {
		if c == cv {
			continue
		}
		gain := 2*(scratch.get(c)-eCur)/st.m2 - 2*kv*(aTotSnap[c]-aCur)/(st.m2*st.m2)
		// Ties go to the community whose ID hashes smaller — core's tieBefore,
		// and for its reason: "smallest ID" chases labels down a naturally
		// numbered uniform mesh (DESIGN §8).
		if gain > bestGain || (gain == bestGain && gain > 0 && par.Mix64(uint64(c)) < par.Mix64(uint64(best))) {
			bestGain = gain
			best = c
		}
	}
	if bestGain <= 0 {
		return cv, false
	}
	// Minimum-label rule (Lu et al.): when a singleton vertex wants to
	// join another singleton, only the higher label moves. This breaks the
	// two-cycle where synchronous sweeps endlessly swap a pair. Raw IDs, as
	// in core's evaluateVertex; core's TestTieRuleSharedAndCoreAgree holds the
	// two rules together.
	if st.commSize[cv] == 1 && st.commSize[best] == 1 && best > cv {
		return cv, true
	}
	// Return rule: the same direction for the two-cycle between communities of
	// any size. Once the phase is damped, v goes back to the community it left
	// one iteration ago only if that label is the smaller one.
	if st.damped && best == st.left[v] && best > cv {
		return cv, true
	}
	return best, false
}

// modularity computes Q from the current assignment and maintained A_c.
func (st *phaseState) modularity() float64 {
	eSum := par.ReduceFloat64(int(st.n), st.opt.Threads, func(_, lo, hi int) float64 {
		var s float64
		for v := lo; v < hi; v++ {
			cv := st.comm[v]
			for _, e := range st.g.Neighbors(int64(v)) {
				if st.comm[e.To] == cv {
					s += e.W
				}
			}
		}
		return s
	})
	aSq := par.ReduceFloat64(int(st.n), st.opt.Threads, func(_, lo, hi int) float64 {
		var s float64
		for c := lo; c < hi; c++ {
			s += st.aTot[c] * st.aTot[c]
		}
		return s
	})
	return eSum/st.m2 - aSq/(st.m2*st.m2)
}

// rebuildAggregates recomputes aTot and commSize from comm (parallel,
// race-free via per-worker partials).
func (st *phaseState) rebuildAggregates() {
	nw := st.opt.Threads
	partialA := make([][]float64, nw)
	partialS := make([][]int64, nw)
	par.For(int(st.n), nw, func(w, lo, hi int) {
		a := make([]float64, st.n)
		s := make([]int64, st.n)
		for v := lo; v < hi; v++ {
			a[st.comm[v]] += st.k[v]
			s[st.comm[v]]++
		}
		partialA[w] = a
		partialS[w] = s
	})
	par.For(int(st.n), nw, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			var a float64
			var s int64
			for w := 0; w < nw; w++ {
				if partialA[w] != nil {
					a += partialA[w][c]
					s += partialS[w][c]
				}
			}
			st.aTot[c] = a
			st.commSize[c] = s
		}
	})
}

// onePhase runs Louvain iterations on g starting from the init assignment
// until the modularity gain drops to Tau (or the ET/iteration caps fire).
func onePhase(g *graph.CSR, init []int64, opt Options, phaseSeed uint64) ([]int64, PhaseStat) {
	st := newPhaseState(g, init, opt, opt.Seed^par.Mix64(phaseSeed))
	stat := PhaseStat{Vertices: g.N}
	if st.m2 == 0 {
		return st.comm, stat
	}

	newComm := make([]int64, st.n)
	scratches := make([]*neighMap, opt.Threads)
	for i := range scratches {
		scratches[i] = newNeighMap(st.n)
	}

	prevQ := math.Inf(-1)
	for {
		if opt.MaxIterations > 0 && stat.Iterations >= opt.MaxIterations {
			break
		}
		stat.Iterations++
		stat.InactiveAtEnd = st.updateActivity(stat.Iterations)

		stat.Touched += st.sweepBuffered(newComm, scratches, stat.Iterations)

		q := st.modularity()
		if q-prevQ <= opt.Tau {
			if !math.IsInf(prevQ, -1) && q < prevQ {
				// A synchronous sweep can jointly decrease Q ("negative
				// gain"); discard it and keep the pre-sweep assignment.
				copy(st.comm, st.left)
				st.rebuildAggregates()
			} else {
				prevQ = q
			}
			break
		}
		prevQ = q
	}
	stat.Modularity = prevQ
	return st.comm, stat
}

// sweepBuffered is the double-buffered whole-graph sweep: all targets are
// computed against the iteration-start snapshot, then applied at once. It
// returns the number of vertices evaluated (the active ones). Once an
// iteration's returns — moves back into st.left — are at least half of its
// moves, the phase is damped (core's dampedReturnShare).
func (st *phaseState) sweepBuffered(newComm []int64, scratches []*neighMap, iter int) int64 {
	touched := par.ReduceInt64(int(st.n), st.opt.Threads, func(w, lo, hi int) int64 {
		scratch := scratches[w]
		var evaluated int64
		for v := lo; v < hi; v++ {
			if !st.isActive(int64(v), iter) {
				newComm[v] = st.comm[v]
				continue
			}
			evaluated++
			var refused bool
			if newComm[v], refused = st.bestMove(int64(v), st.comm, st.aTot, scratch); refused {
				st.prevComm[v] = refusedMark
			}
		}
		return evaluated
	})
	var moves, returns int64
	for v, c := range newComm {
		if c != st.comm[v] {
			moves++
			if c == st.left[v] {
				returns++
			}
		}
	}
	if moves > 0 && 2*returns >= moves {
		st.damped = true
	}
	copy(st.left, st.comm)
	copy(st.comm, newComm)
	st.rebuildAggregates()
	return touched
}

// neighMap mirrors the serial implementation's flat accumulation map; each
// worker owns one.
type neighMap struct {
	weight []float64
	mark   []int64
	stamp  int64
	keys   []int64
}

func newNeighMap(n int64) *neighMap {
	return &neighMap{
		weight: make([]float64, n),
		mark:   make([]int64, n),
		keys:   make([]int64, 0, 64),
	}
}

func (m *neighMap) reset() {
	m.stamp++
	m.keys = m.keys[:0]
}

func (m *neighMap) add(c int64, w float64) {
	if m.mark[c] != m.stamp {
		m.mark[c] = m.stamp
		m.weight[c] = 0
		m.keys = append(m.keys, c)
	}
	m.weight[c] += w
}

func (m *neighMap) get(c int64) float64 {
	if m.mark[c] != m.stamp {
		return 0
	}
	return m.weight[c]
}
