package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"distlouvain/internal/ckpt"
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
// bit-identity across rank and thread counts, scans and transports (checkDraw)
// and restarts (checkRestart), for every input, its weights made integers as
// they enter (graph.Weights.Scale); 3, exact sums (checkSums); 5, a quality
// floor (checkQuality). TestRunProperties runs a fixed corpus and fails when
// it stops exercising what the properties are about; FuzzRunProperties draws
// more.

// propDraw is one input of the suite and the variant it runs.
type propDraw struct {
	name  string
	n     int64
	edges []graph.RawEdge
	truth []int64 // the planted partition; nil for the other generators
	cfg   Config
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
	multiPhaseResume int // interrupted runs that went on for 2+ phases after resuming
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
func checkResult(t *testing.T, label string, g *graph.CSR, res *Result) seq.Certificate {
	t.Helper()
	cert, err := seq.Check(g.N, g.Stream(), res.GlobalComm, res.Modularity, res.Communities)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i, ph := range res.Phases {
		if ph.Modularity > res.Modularity {
			t.Fatalf("%s: phase %d ended at Q = %.17g, above the reported %.17g", label, i, ph.Modularity, res.Modularity)
		}
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
		checkResult(r.t, label, r.g, res)
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
// it under the race detector), under the full scan, with checkpoints and
// through an interrupt and a resume, and over a static-address TCP world when
// tcp is set, and asserts properties 1–5 of every result. Every weight is an
// integer once Build has scaled it, so every sum is exact and every decision
// depends on global IDs and allreduced values only (the ET coin and the tie
// hash key on global IDs, remote deltas and Step-5 partials add up to the
// same integers in any order, Σ A_c² crosses ranks as exact limbs): every
// run must retrace the 1-rank run bit for bit, float draws included. cov,
// when non-nil, accumulates what the draw exercised.
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
	label := fmt.Sprintf("%s p=%d T=%d full scan", d.name, pa, tb)
	sameTrajectory(t, label, r.mustRun(label, pa, tb, func(c *Config) { c.oracle.fullScan = true }), want)
	if d.truth != nil {
		checkQuality(t, d.name, r.g, d.truth, want)
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
		checkResult(t, label, r.g, res)
		sameTrajectory(t, label, res, want)
	}
	r.checkRestart(want, pa, ta, tb)
}

// checkRestart is the restart half of property 2. A snapshot holds the coarse graph, the labels and
// the driver position at a phase boundary, and the frontier and the ET state
// start afresh at every phase, so a run resumed from a snapshot continues the
// very trajectory the snapshot was cut from, at any rank count (the resume
// here moves to another). A run that checkpoints at pa ranks retraces the
// plain one (want); resuming its last snapshot and resuming an interrupted
// run both end on want's bits, and the phases run after the resume match it
// move for move and return for return (the snapshot does not carry the
// earlier phases' counts).
func (r *drawRun) checkRestart(want *Result, pa, ta, tb int) {
	t, d := r.t, r.d
	pr := 1 + pa%4 // the rank count a resume runs at
	resume := func(label, dir string) *Result {
		cfg, _ := probed(d, pr, tb)
		res := resumeInproc(t, pr, dir, cfg)
		checkResult(t, label, r.g, res)
		sameOutcome(t, label, res, want)
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

// TestRunProperties checks properties 1–5 on a fixed corpus: every generator ×
// weight kind, two seeds each (the first under the race detector), the variant
// cycling through the five. It then requires the corpus to have exercised every
// case below at least once, so that no property passes on nothing.
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
	t.Logf("%d draws; coverage %+v", draws, cov)
	for _, c := range []struct {
		name  string
		count int
	}{
		{"a phase damped by the return rule", cov.damped},
		{"an ETC exit", cov.etcExit},
		{"a TC-forced final phase", cov.tcForced},
		{"a discarded losing phase", cov.discarded},
		{"a multi-phase resume", cov.multiPhaseResume},
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
