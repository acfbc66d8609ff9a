package seq

import (
	"math"

	"distlouvain/internal/graph"
)

// Options configures the serial Louvain run.
type Options struct {
	// Tau is the modularity-gain threshold used both between iterations of
	// a phase and between phases (the paper's τ, default 1e-6).
	Tau float64
	// MaxPhases caps the number of phases (0 = unlimited).
	MaxPhases int
	// MaxIterations caps iterations within one phase (0 = unlimited).
	MaxIterations int
}

// DefaultTau is the paper's default threshold τ = 10⁻⁶.
const DefaultTau = 1e-6

func (o *Options) fill() {
	if o.Tau <= 0 {
		o.Tau = DefaultTau
	}
}

// PhaseStat records one phase of the multi-phase heuristic.
type PhaseStat struct {
	Vertices   int64   // size of the (coarsened) graph this phase ran on
	Iterations int     // Louvain iterations executed
	Modularity float64 // modularity at phase end
}

// Result is the outcome of a Louvain run.
type Result struct {
	// Comm maps each original vertex to its final community label
	// (labels are final-graph vertex IDs, dense in [0, Communities)).
	Comm []int64
	// Modularity is the final modularity on the original graph.
	Modularity float64
	// Communities is the number of final communities.
	Communities int64
	// Phases describes each executed phase.
	Phases []PhaseStat
	// TotalIterations sums iterations across phases.
	TotalIterations int
}

// Run executes the serial Louvain method (Algorithm 1 per phase, coarsening
// between phases) and returns the flattened community assignment of the
// original vertices.
func Run(g *graph.CSR, opt Options) *Result {
	opt.fill()
	res := &Result{Comm: make([]int64, g.N)}
	for v := range res.Comm {
		res.Comm[v] = int64(v)
	}
	if g.N == 0 {
		return res
	}

	cur := g
	prevQ := math.Inf(-1)
	for phase := 0; opt.MaxPhases == 0 || phase < opt.MaxPhases; phase++ {
		comm, q, iters := onePhase(cur, opt)
		res.Phases = append(res.Phases, PhaseStat{Vertices: cur.N, Iterations: iters, Modularity: q})
		res.TotalIterations += iters
		if q-prevQ <= opt.Tau {
			break
		}
		prevQ = q
		coarse, renumber := Coarsen(cur, comm)
		// Flatten: original vertex → current community → coarse vertex.
		for v := range res.Comm {
			res.Comm[v] = renumber[comm[res.Comm[v]]]
		}
		if coarse.N == cur.N {
			// No compaction happened; a further phase would repeat the
			// same computation.
			cur = coarse
			break
		}
		cur = coarse
	}

	// Final labels are vertices of the last coarse graph; make them dense.
	_, renumber := densify(res.Comm)
	for v := range res.Comm {
		res.Comm[v] = renumber[res.Comm[v]]
	}
	cert, err := Certify(g.N, g.Stream(), res.Comm)
	if err != nil {
		panic(err) // dense labels of g's vertices, by construction
	}
	res.Communities, res.Modularity = cert.Communities, cert.Q
	return res
}

func densify(comm []int64) (int64, map[int64]int64) {
	renumber := make(map[int64]int64)
	var next int64
	for _, c := range comm {
		if _, ok := renumber[c]; !ok {
			renumber[c] = next
			next++
		}
	}
	return next, renumber
}

// onePhase runs Louvain iterations on g until the per-iteration modularity
// gain drops to opt.Tau, returning the assignment, final modularity, and the
// iteration count.
func onePhase(g *graph.CSR, opt Options) ([]int64, float64, int) {
	n := g.N
	m2 := g.TotalWeight()
	comm := make([]int64, n)
	k := make([]float64, n)        // weighted degrees
	aTot := make([]float64, n)     // A_c per community label (labels are vertex IDs)
	selfLoop := make([]float64, n) // self-loop weight per vertex
	for v := int64(0); v < n; v++ {
		comm[v] = v
		k[v] = g.WeightedDegree(v)
		aTot[v] = k[v]
		selfLoop[v] = g.SelfLoopWeight(v)
	}
	if m2 == 0 {
		return comm, 0, 0
	}

	scratch := newNeighMap(n)
	prevQ := math.Inf(-1)
	iters := 0
	for {
		if opt.MaxIterations > 0 && iters >= opt.MaxIterations {
			break
		}
		iters++
		for v := int64(0); v < n; v++ {
			moveVertex(g, v, comm, k, aTot, selfLoop, m2, scratch)
		}
		q := modularityFromState(g, comm, aTot, m2)
		if q-prevQ <= opt.Tau {
			prevQ = q
			break
		}
		prevQ = q
	}
	return comm, prevQ, iters
}

// moveVertex evaluates all neighbouring communities of v and applies the
// ΔQ-maximising move (lines 4–8 of Algorithm 1), ranked by Gain, ties to the
// smaller label. Returns true if v moved.
func moveVertex(g *graph.CSR, v int64, comm []int64, k, aTot, selfLoop []float64, m2 float64, scratch *neighMap) bool {
	cv := comm[v]
	scratch.reset()
	// e_{v,c}: weight from v to each neighbouring community, excluding the
	// self loop (it moves with v and cancels in ΔQ).
	for _, e := range g.Neighbors(v) {
		if e.To == v {
			continue
		}
		scratch.add(comm[e.To], e.W)
	}
	eCur := scratch.get(cv) // e_{v, a−v}

	best := cv
	bestGain := 0.0
	kv := k[v]
	aCur := aTot[cv] - kv // A_a excluding v
	for _, c := range scratch.keys {
		if c == cv {
			continue
		}
		gain := Gain(m2, scratch.get(c)-eCur, kv, aTot[c]-aCur)
		if gain > bestGain || (gain == bestGain && gain > 0 && c < best) {
			bestGain = gain
			best = c
		}
	}
	if best != cv && bestGain > 0 {
		aTot[cv] -= kv
		aTot[best] += kv
		comm[v] = best
		return true
	}
	return false
}

// Gain is the ΔQ of moving a vertex of weighted degree kv from its community
// a into c ≠ a, scaled by m2²/2: m2·dw − kv·da, with dw = e_vc − e_va' (its
// edge weight into c minus that into a without it) and da = A_c − A_a' (A_a' =
// A_a − kv). A positive scale keeps the order of the candidates and the sign,
// and drops the two divisions that round: every weight is an integer
// (graph.Weights.Scale), so every factor is one, |dw| ≤ kv and |da| ≤ m2 − kv,
// and while m2² ≤ 2⁵³ both products and their difference are integers of
// magnitude at most m2², exact in float64. Equal gains then compare equal, and
// the tie rule picks between
// them, not rounding. Converting each product rounds it, so no platform fuses
// them into a multiply-add and decides differently past that condition.
func Gain(m2, dw, kv, da float64) float64 {
	return float64(m2*dw) - float64(kv*da)
}

// modularityFromState computes Q using the maintained A_c array and a fresh
// scan for E_c. This is the Q Certify gives the labels, without a union-find
// or a second degree pass every iteration.
func modularityFromState(g *graph.CSR, comm []int64, aTot []float64, m2 float64) float64 {
	var eSum float64
	for v := int64(0); v < g.N; v++ {
		cv := comm[v]
		for _, e := range g.Neighbors(v) {
			if comm[e.To] == cv {
				eSum += e.W
			}
		}
	}
	var aSq SquareSum
	for _, a := range aTot {
		aSq.Add(a)
	}
	return ModularityOf(eSum, m2, aSq)
}

// neighMap is a flat-array "hash map" from community label (a vertex ID of
// the current graph) to accumulated edge weight, reusable across vertices
// without clearing the whole array. This is the classic Louvain scratch
// structure; the map-based alternative is benchmarked in the ablation suite.
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
		stamp:  0,
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
