package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"distlouvain/internal/ckpt"
	"distlouvain/internal/frontier"
	"distlouvain/internal/gen"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
	"distlouvain/internal/par"
	"distlouvain/internal/seq"
)

// The property suite: what every result of Run promises, checked on graphs
// from every internal/gen generator with unit, small-integer and float weights
// under every paper variant (DESIGN §8 "What a result promises" lists them).
// Each promise lives in one helper whose comment says why it holds: 1, a valid
// result, and 4, the reported Q is the best recorded phase (checkResult); 2,
// bit-identity across rank and thread counts, scans, kernels, frontier
// representations and transports (checkDraw) and restarts (checkRestart), for
// every input, its weights made integers as they enter (graph.Weights.Scale);
// 3, exact sums (checkSums); 5, a quality floor (checkQuality). A few gadgets,
// fixed graphs whose construction determines the result, run through the same
// checks and are held to that result (propGadgets). TestRunProperties runs a
// fixed corpus and fails when it stops exercising what the properties are
// about; FuzzRunProperties draws more.

// propDraw is one input of the suite and the variant it runs.
type propDraw struct {
	name  string
	n     int64
	edges []graph.RawEdge
	truth []int64 // the planted partition; nil for the other generators
	cfg   Config
	// A gadget's rank counts beyond checkDraw's own, and its known result.
	ranks  []int
	expect func(*Result) error
}

// propFamilies is the number of generators a draw picks from.
const propFamilies = 8

// newPropDraw draws a graph from generator family (mod propFamilies) at a size
// the seed picks, weighs it (weights mod 3: as generated, i.e. unit; integer
// 1–7; float) and configures variant (mod 5: baseline, TC, ET, ETC, ET+TC,
// α ∈ {0.25, 0.75}), with the ET coins seeded by seed.
func newPropDraw(family, weights, variant uint8, seed uint64) (propDraw, error) {
	rng := par.NewXoshiro256(seed)
	size := func(lo, hi int64) int64 { return lo + rng.Int63n(hi-lo+1) }
	var d propDraw
	var err error
	switch family % propFamilies {
	case 0:
		n := size(100, 300)
		d.name = "er"
		d.n, d.edges = gen.ErdosRenyi(n, n*size(3, 6), seed)
	case 1:
		// 120–240 vertices at any k: k ≤ 3 gives the 4-rank runs a last phase
		// with a rank that owns no vertex, and property 5 does not hold for
		// 2–3 communities of 15 vertices (0.887 of serial Louvain).
		k := size(2, 8)
		d.name = "planted"
		d.n, d.edges, d.truth = gen.PlantedPartition(int(k), size(120, 240)/k, 0.4+0.15*rng.Float64(), 0.005+0.015*rng.Float64(), seed)
	case 2:
		d.name = "rmat"
		d.n, d.edges, err = gen.RMAT(int(size(8, 9)), 8, 0.57, 0.19, 0.19, 0.05, seed)
	case 3:
		d.name = "band"
		d.n, d.edges = gen.BandedMesh(size(200, 600), size(3, 6))
	case 4:
		d.name = "grid"
		d.n, d.edges = gen.Grid2D(size(10, 20), size(10, 20), rng.Int63n(2) == 1)
	case 5:
		d.name = "ws"
		d.n, d.edges, err = gen.WattsStrogatz(size(200, 500), 2*size(2, 3), 0.05+0.25*rng.Float64(), seed)
	case 6:
		d.name = "lfr"
		d.n, d.edges, _, err = gen.LFR(gen.DefaultLFR(size(400, 1000), 0.1+0.4*rng.Float64(), seed))
	case 7:
		d.name = "ssca2"
		d.n, d.edges, _, err = gen.SSCA2(gen.SSCA2Options{N: size(200, 600), MaxCliqueSize: size(8, 24), InterProb: 0.02, Seed: seed})
	}
	if err != nil {
		return d, err
	}
	for i := range d.edges {
		h := par.Mix64(seed ^ uint64(i)*0x9e3779b97f4a7c15)
		switch weights % 3 {
		case 1:
			d.edges[i].W = float64(1 + h%7)
		case 2:
			d.edges[i].W = 0.3 + float64(h%97)*0.137
		}
	}
	alpha := []float64{0.25, 0.75}[rng.Int63n(2)]
	d.cfg = [5]Config{Baseline(), ThresholdCycling(), ET(alpha), ETC(alpha), ETWithTC(alpha)}[variant%5]
	d.cfg.Seed = seed
	d.name += fmt.Sprintf("/%s/%s/seed=%d", [3]string{"unit", "int", "float"}[weights%3], d.cfg.VariantName(), seed)
	return d, nil
}

// propCoverage counts what a corpus exercised, so that it cannot quietly stop
// covering the cases the properties are there for.
type propCoverage struct {
	damped           int // phases the return rule damped
	etcExit          int // phases ended by ETC's inactivity exit
	tcForced         int // forced final phases of a threshold cycle
	discarded        int // phases that ended below the kept one and were discarded
	rolledBack       int // phases whose last iteration lowered Q and was restored
	multiPhaseResume int // interrupted runs that went on for 2+ phases after resuming
	resumeP5         int // resumes at 5 ranks
	emptyRank        int // probes of a rank that owned no vertex
}

// observe counts the cases res exercised.
func (cov *propCoverage) observe(cfg Config, res *Result) {
	kept := math.Inf(-1)
	for i, ph := range res.Phases {
		if ph.DampedFrom > 0 {
			cov.damped++
		}
		if ph.Exit == ExitETC {
			cov.etcExit++
		}
		if s := cfg.TauSchedule; len(s) > 0 && ph.Tau < s[i%len(s)] {
			cov.tcForced++
		}
		if ph.Modularity < kept {
			cov.discarded++
		} else {
			kept = ph.Modularity
		}
		if k := len(ph.QTrajectory); k >= 2 && ph.QTrajectory[k-1] < ph.QTrajectory[k-2] {
			cov.rolledBack++
		}
	}
}

// fetchSums is one rank's share of the owner tables at one afterFetch: Σ A_c
// and Σ size over the communities it owns, in the phase it belongs to.
type fetchSums struct {
	phase   int
	a       float64
	size    int64
	localN  int64
	globalN int64
}

// probed returns d's configuration at the given thread count with a probe
// that records, at every iteration of every phase, each of p ranks' fetchSums.
func probed(d propDraw, p, threads int) (Config, [][]fetchSums) {
	cfg := d.cfg
	cfg.Threads = threads
	sums := make([][]fetchSums, p)
	cfg.oracle.afterFetch = func(st *phaseState) error {
		s := fetchSums{phase: st.phase, localN: st.dg.LocalN, globalN: st.dg.GlobalN}
		for lc := int64(0); lc < st.dg.LocalN; lc++ {
			s.a += st.cA[lc]
			s.size += st.cSize[lc]
		}
		r := st.dg.Comm.Rank()
		sums[r] = append(sums[r], s)
		return nil
	}
	return cfg, sums
}

// checkSums is property 3. Every move takes a vertex's degree and its count
// out of one community and into another, and a rollback restores both sides,
// so the owners' tables always account for every unit of weight and every
// vertex of the phase graph, whose total weight coarsening preserves: Σ A_c =
// 2m of the input and Σ size = the phase graph's vertex count. Each rank
// recorded its partial sums, added here in rank order, so the check adds no
// collective; every weight is an integer, so every partial sum is exact, and
// so is the total.
func checkSums(t *testing.T, label string, m2 float64, sums [][]fetchSums, cov *propCoverage) {
	t.Helper()
	for r := range sums {
		if len(sums[r]) != len(sums[0]) || len(sums[r]) == 0 {
			t.Fatalf("%s: rank %d probed %d iterations, rank 0 %d", label, r, len(sums[r]), len(sums[0]))
		}
	}
	for k := range sums[0] {
		var a float64
		var size int64
		for r := range sums {
			s := sums[r][k]
			if s.phase != sums[0][k].phase {
				t.Fatalf("%s: probe %d is phase %d at rank %d, %d at rank 0", label, k, s.phase, r, sums[0][k].phase)
			}
			if s.localN == 0 && cov != nil {
				cov.emptyRank++
			}
			a += s.a
			size += s.size
		}
		if want := sums[0][k].globalN; size != want {
			t.Fatalf("%s: phase %d probe %d: Σ size = %d, the phase graph has %d vertices", label, sums[0][k].phase, k, size, want)
		}
		if a != m2 {
			t.Fatalf("%s: phase %d probe %d: Σ A_c = %.17g, 2m = %.17g", label, sums[0][k].phase, k, a, m2)
		}
	}
}

// checkResult is properties 1 and 4 on one result, and returns the labels'
// certificate. The labels are the dense renumbering of the last kept phase's
// communities, and the reported Q is that phase's Q, whose E_c and A_c are the
// final coarse graph's self loops and degrees, so it is the Q of the labels
// bit for bit (seq.Check): every sum is an exact integer, whatever its order.
// A phase that ends below the kept one is discarded, so no recorded phase —
// kept or discarded — ends above the reported Q. That is the precise form of
// "kept phases never lose": a discarded phase stays listed with its lower Q.
// The record has its shape: one trajectory entry per iteration (a snapshot
// carries Q and moves only, so the first restored phases of a resumed run
// have no others), an ETC exit at or above DefaultETCExit, and a positive
// runtime, step total and collective count.
func checkResult(t *testing.T, label string, g *graph.CSR, res *Result, restored int) seq.Certificate {
	t.Helper()
	cert, err := seq.Check(g.N, g.Stream(), res.GlobalComm, res.Modularity, res.Communities)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i, ph := range res.Phases {
		if ph.Modularity > res.Modularity {
			t.Fatalf("%s: phase %d ended at Q = %.17g, above the reported %.17g", label, i, ph.Modularity, res.Modularity)
		}
		lens := []int{len(ph.QTrajectory), len(ph.MovesTrajectory)}
		if i >= restored {
			lens = append(lens, len(ph.ReturnsTrajectory), len(ph.TouchedTrajectory), len(ph.FrontierTrajectory))
		}
		for _, n := range lens {
			if n != ph.Iterations {
				t.Fatalf("%s: phase %d ran %d iterations, its trajectories have %v entries", label, i, ph.Iterations, lens)
			}
		}
		if ph.Exit == ExitETC && ph.InactiveFrac < DefaultETCExit {
			t.Fatalf("%s: phase %d: ETC exit at InactiveFrac %v", label, i, ph.InactiveFrac)
		}
	}
	if res.Runtime <= 0 || res.Steps.Total <= 0 || res.Traffic.CollectiveOps <= 0 {
		t.Fatalf("%s: runtime %v, step total %v, %d collectives", label, res.Runtime, res.Steps.Total, res.Traffic.CollectiveOps)
	}
	return cert
}

// checkQuality is property 5, on planted-partition draws, whose structure is
// clear enough that the distributed heuristic must not lose it: Q within 0.05
// of the planted partition's and at least 0.9 of serial Louvain's. Over 600
// planted draws × every variant the worst were −0.036 and 0.922 (one draw);
// 0.95 of serial is the typical case, not a promise.
func checkQuality(t *testing.T, label string, g *graph.CSR, truth []int64, res *Result) {
	t.Helper()
	planted, err := seq.Certify(g.N, g.Stream(), truth)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if res.Modularity < planted.Q-0.05 {
		t.Fatalf("%s: Q = %.4f, the planted partition %.4f", label, res.Modularity, planted.Q)
	}
	if serial := seq.Run(g, seq.Options{}).Modularity; res.Modularity < 0.9*serial {
		t.Fatalf("%s: Q = %.4f, serial Louvain %.4f", label, res.Modularity, serial)
	}
}

// drawRun runs one draw, checking properties 1, 3 and 4 of every result.
type drawRun struct {
	t   *testing.T
	d   propDraw
	g   *graph.CSR
	cov *propCoverage // nil: count nothing
}

// run runs the draw on p in-process ranks of threads workers each, its
// configuration changed by mod when mod is non-nil.
func (r *drawRun) run(label string, p, threads int, mod func(*Config)) (*Result, error) {
	cfg, sums := probed(r.d, p, threads)
	if mod != nil {
		mod(&cfg)
	}
	res, err := RunOnEdges(p, r.d.n, r.d.edges, cfg)
	if err == nil {
		checkResult(r.t, label, r.g, res, 0)
		checkSums(r.t, label, r.g.TotalWeight(), sums, r.cov)
	}
	return res, err
}

func (r *drawRun) mustRun(label string, p, threads int, mod func(*Config)) *Result {
	res, err := r.run(label, p, threads, mod)
	if err != nil {
		r.t.Fatalf("%s: %v", label, err)
	}
	return res
}

// checkDraw runs d at every rank count 1..4 × thread count 1..3 (a diagonal of
// it under the race detector), then once in each lane below and at d's extra
// rank counts, with checkpoints and through an interrupt and a resume, and over
// a static-address TCP world when tcp is set, and asserts properties 1–5 of
// every result. Every weight is an integer once Build has scaled it, so every
// sum is exact and every decision depends on global IDs and allreduced values
// only (the ET coin and the tie hash key on global IDs, remote deltas and
// Step-5 partials add up to the same integers in any order, Σ A_c² crosses
// ranks as exact limbs): every run must retrace the 1-rank run bit for bit,
// float draws included. The lanes hold the other paths to it: 5 ranks, 4
// threads, the full scan, the reference kernels (targets resolved by global
// ID; under the full scan or not, by seed) and the frontier pinned to one
// representation. A gadget's result must be the one it knows. cov, when
// non-nil, accumulates what the draw exercised.
func checkDraw(t *testing.T, d propDraw, tcp bool, cov *propCoverage) {
	r := &drawRun{t: t, d: d, g: gen.Build(d.n, d.edges), cov: cov}
	var want *Result // the first run, which every other retraces
	for p := 1; p <= 4; p++ {
		for threads := 1; threads <= 3; threads++ {
			if raceEnabled && threads != 1+p%3 {
				continue
			}
			label := fmt.Sprintf("%s p=%d T=%d", d.name, p, threads)
			res := r.mustRun(label, p, threads, nil)
			if want != nil {
				sameTrajectory(t, label, res, want)
				continue
			}
			want = res
			if cov != nil {
				cov.observe(d.cfg, res)
			}
		}
	}

	seed := d.cfg.Seed
	pa, ta, tb := 1+int(seed%4), 1+int(seed%3), 1+int((seed+1)%3)
	k := seed / 2 % 2 // which representation the pinned frontier lane takes
	type lane struct {
		name       string
		p, threads int
		o          oracle
	}
	lanes := []lane{
		{"", 5, ta, oracle{}},
		{"", pa, 4, oracle{}},
		{"full scan", pa, tb, oracle{fullScan: true}},
		{"reference kernels", 1 + int((seed+2)%4), ta, oracle{refKernels: true, fullScan: seed%2 == 1}},
		{[2]string{"dense frontier", "sparse frontier"}[k], 1 + int((seed+1)%4), tb, oracle{rep: [2]frontier.Rep{frontier.RepDense, frontier.RepSparse}[k]}},
	}
	for _, p := range d.ranks {
		lanes = append(lanes, lane{"", p, ta, oracle{}})
	}
	for _, l := range lanes {
		label := strings.TrimSpace(fmt.Sprintf("%s p=%d T=%d %s", d.name, l.p, l.threads, l.name))
		res := r.mustRun(label, l.p, l.threads, func(c *Config) {
			l.o.afterFetch = c.oracle.afterFetch
			c.oracle = l.o
		})
		sameTrajectory(t, label, res, want)
	}
	if d.truth != nil {
		checkQuality(t, d.name, r.g, d.truth, want)
	}
	if d.expect != nil {
		if err := d.expect(want); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
	}
	if tcp {
		p := 2 + int(seed%3)
		label := fmt.Sprintf("%s p=%d T=%d tcp", d.name, p, ta)
		cfg, _ := probed(d, p, ta)
		cfg.GatherOutput = true
		errs, res, _, _ := runChaosTCP(t, p, -1, mpi.FaultPlan{}, d.n, d.edges, cfg)
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkResult(t, label, r.g, res, 0)
		sameTrajectory(t, label, res, want)
	}
	r.checkRestart(want, pa, ta, tb)
}

// checkRestart is the restart half of property 2. A snapshot holds the coarse
// graph, the labels and the driver position at a phase boundary, and the
// frontier and the ET state start afresh at every phase, so a run resumed from
// a snapshot continues the very trajectory the snapshot was cut from, at any
// rank count (the resume here moves to another, 1..5 by seed). A run that
// checkpoints at pa ranks retraces the plain one (want); resuming its last
// snapshot and resuming an interrupted run both end on want's bits, and the
// phases run after the resume match it move for move and return for return
// (the snapshot does not carry the earlier phases' counts).
func (r *drawRun) checkRestart(want *Result, pa, ta, tb int) {
	t, d := r.t, r.d
	pr := 1 + (pa+int(d.cfg.Seed/2%4))%5 // the rank count a resume runs at
	resume := func(label, dir string) *Result {
		man, err := ckpt.ReadManifest(dir)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		cfg, _ := probed(d, pr, tb)
		res := resumeInproc(t, pr, dir, cfg)
		checkResult(t, label, r.g, res, man.Phase)
		sameOutcome(t, label, res, want)
		if r.cov != nil && pr == 5 {
			r.cov.resumeP5++
		}
		return res
	}

	dir := t.TempDir()
	label := fmt.Sprintf("%s p=%d T=%d checkpointing", d.name, pa, ta)
	res := r.mustRun(label, pa, ta, func(c *Config) { c.CheckpointDir = dir })
	sameTrajectory(t, label, res, want)
	if len(res.Phases) >= 2 {
		man, err := ckpt.ReadManifest(dir)
		if err != nil || man.Phase < 1 || man.WorldSize != pa {
			t.Fatalf("%s: manifest %+v (%v) after %d phases", label, man, err, len(res.Phases))
		}
		resume(fmt.Sprintf("%s p=%d T=%d resumed from the last snapshot", d.name, pr, tb), dir)
	}

	// Interrupt at the first phase boundary, and resume.
	dir = t.TempDir()
	var stop atomic.Bool
	label = fmt.Sprintf("%s p=%d T=%d interrupted", d.name, pa, ta)
	res, err := r.run(label, pa, ta, func(c *Config) {
		c.CheckpointDir = dir
		c.Interrupted = stop.Load
		c.Progress = func(ev ProgressEvent) {
			if ev.Kind == ProgressIteration {
				stop.Store(true)
			}
		}
	})
	switch {
	case err == nil: // one phase: the run ended before the boundary poll
		sameTrajectory(t, label, res, want)
		return
	case !errors.Is(err, ErrInterrupted):
		t.Fatalf("%s: %v", label, err)
	}
	label = fmt.Sprintf("%s p=%d T=%d resumed after phase 0", d.name, pr, tb)
	got := resume(label, dir)
	for p := 1; p < len(want.Phases); p++ {
		samePhase(t, label, p, got.Phases[p], want.Phases[p])
	}
	if r.cov != nil && len(got.Phases) >= 3 {
		r.cov.multiPhaseResume++
	}
}

// propGadgets are the draws of small graphs whose results are known exactly,
// which checkDraw holds them to: two 4-cliques joined by one edge (also at 12
// ranks, more than its vertices), a 64-leaf star (at 8 ranks too, its leaves
// on every rank), a chain whose pairs weigh 10⁶ and whose links 10⁻³, six
// disjoint 5-cliques, 7 vertices and no edge, 2 vertices with self loops only,
// and two triangles bridged by an edge of weight 10, which serial Louvain
// decides. All run the baseline.
func propGadgets() []propDraw {
	cliques := func(k, size int64) []graph.RawEdge {
		var edges []graph.RawEdge
		for base := int64(0); base < k*size; base += size {
			for i := base; i < base+size; i++ {
				for j := i + 1; j < base+size; j++ {
					edges = append(edges, graph.RawEdge{U: i, V: j, W: 1})
				}
			}
		}
		return edges
	}
	var star, chain []graph.RawEdge
	for v := int64(1); v < 64; v++ {
		star = append(star, graph.RawEdge{U: 0, V: v, W: 1})
	}
	for v := int64(0); v < 39; v++ {
		chain = append(chain, graph.RawEdge{U: v, V: v + 1, W: []float64{1e6, 1e-3}[v%2]})
	}
	triangles := []graph.RawEdge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 3, V: 5, W: 1},
		{U: 2, V: 3, W: 10},
	}
	serialQ := seq.Run(gen.Build(6, triangles), seq.Options{}).Modularity

	// exactly wants k communities (any count at 0) and, unless q is NaN, Q
	// within 10⁻⁹ of q.
	exactly := func(k int64, q float64) func(*Result) error {
		return func(res *Result) error {
			if k > 0 && res.Communities != k || !(math.IsNaN(q) || math.Abs(res.Modularity-q) <= 1e-9) {
				return fmt.Errorf("%d communities at Q = %.17g, want %d at %.17g", res.Communities, res.Modularity, k, q)
			}
			return nil
		}
	}
	pairsMerged := func(res *Result) error {
		for v := 0; v+1 < len(res.GlobalComm); v += 2 {
			if res.GlobalComm[v] != res.GlobalComm[v+1] {
				return fmt.Errorf("heavy pair (%d, %d) split", v, v+1)
			}
		}
		return nil
	}
	gadgets := []propDraw{
		{name: "two-cliques", n: 8, edges: append(cliques(2, 4), graph.RawEdge{U: 3, V: 4, W: 1}), ranks: []int{12}, expect: exactly(2, 24.0/26.0-0.5)},
		{name: "star", n: 64, edges: star, ranks: []int{8}, expect: exactly(1, 0)},
		{name: "heavy-chain", n: 40, edges: chain, expect: pairsMerged},
		{name: "disjoint-cliques", n: 30, edges: cliques(6, 5), expect: exactly(6, 1-1.0/6)},
		{name: "no-edges", n: 7, expect: exactly(7, 0)},
		{name: "self-loops", n: 2, edges: []graph.RawEdge{{U: 0, V: 0, W: 2}, {U: 1, V: 1, W: 3}}, expect: exactly(2, math.NaN())},
		{name: "bridged-triangles", n: 6, edges: triangles, expect: exactly(0, serialQ)},
	}
	for i := range gadgets {
		g := &gadgets[i]
		g.name = "gadget/" + g.name
		g.cfg = Baseline()
		g.cfg.Seed = uint64(i + 1) // varies the lanes' rank and thread counts
	}
	return gadgets
}

// TestRunProperties checks properties 1–5 on a fixed corpus: every generator ×
// weight kind, two seeds each (the first under the race detector), the variant
// cycling through the five, and the gadgets, each held to its known result. It
// then requires the corpus to have exercised every case below at least once,
// so that no property passes on nothing.
func TestRunProperties(t *testing.T) {
	seeds := 2
	if raceEnabled {
		seeds = 1
	}
	var cov propCoverage
	draws := 0
	for family := range uint8(propFamilies) {
		for weights := range uint8(3) {
			for s := range uint8(seeds) {
				d, err := newPropDraw(family, weights, 6*family+2*weights+s, uint64(1+s+2*weights))
				if err != nil {
					t.Fatal(err)
				}
				checkDraw(t, d, true, &cov)
				draws++
			}
		}
	}
	for _, d := range propGadgets() {
		checkDraw(t, d, true, &cov)
		draws++
	}
	t.Logf("%d draws; coverage %+v", draws, cov)
	for _, c := range []struct {
		name  string
		count int
	}{
		{"a phase damped by the return rule", cov.damped},
		{"an ETC exit", cov.etcExit},
		{"a TC-forced final phase", cov.tcForced},
		{"a discarded losing phase", cov.discarded},
		{"a rolled-back iteration", cov.rolledBack},
		{"a multi-phase resume", cov.multiPhaseResume},
		{"a resume at 5 ranks", cov.resumeP5},
		{"a rank that owns no vertex", cov.emptyRank},
	} {
		if c.count == 0 {
			t.Errorf("the corpus no longer exercises %s", c.name)
		}
	}
}

// FuzzRunProperties explores draws beyond the corpus with the same checker,
// in-process only (make fuzz).
func FuzzRunProperties(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(3), uint64(7))
	f.Fuzz(func(t *testing.T, family, weights, variant uint8, seed uint64) {
		d, err := newPropDraw(family, weights, variant, seed)
		if err != nil {
			t.Skip(err)
		}
		checkDraw(t, d, false, nil)
	})
}
