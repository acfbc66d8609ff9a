package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
	"distlouvain/internal/seq"
)

func TestDistributedMatchesSerialQuality(t *testing.T) {
	n, edges, _ := gen.PlantedPartition(8, 25, 0.4, 0.005, 77)
	g := gen.Build(n, edges)
	serial := seq.Run(g, seq.Options{})
	for _, p := range []int{2, 4} {
		res, err := RunOnEdges(p, n, edges, Baseline())
		if err != nil {
			t.Fatal(err)
		}
		// "without compromising output quality": within a few percent of
		// serial Louvain.
		if res.Modularity < serial.Modularity*0.95 {
			t.Fatalf("p=%d: distributed Q=%.4f far below serial %.4f", p, res.Modularity, serial.Modularity)
		}
	}
}

func TestDistributedSingleRankNearSerial(t *testing.T) {
	// On one rank there are no ghosts and no lag: quality should be very
	// close to the serial heuristic on a well-structured graph.
	n, edges, _ := gen.PlantedPartition(10, 20, 0.5, 0.005, 3)
	g := gen.Build(n, edges)
	serial := seq.Run(g, seq.Options{})
	res, err := RunOnEdges(1, n, edges, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Modularity-serial.Modularity) > 0.05 {
		t.Fatalf("1-rank Q=%.4f vs serial %.4f", res.Modularity, serial.Modularity)
	}
}

func TestVariantNames(t *testing.T) {
	cases := map[string]Config{
		"Baseline":          Baseline(),
		"Threshold Cycling": ThresholdCycling(),
		"ET(0.25)":          ET(0.25),
		"ETC(0.75)":         ETC(0.75),
		"ET(0.25)+TC":       ETWithTC(0.25),
	}
	for want, cfg := range cases {
		if got := cfg.VariantName(); got != want {
			t.Fatalf("VariantName = %q, want %q", got, want)
		}
	}

	// ParseVariant and VariantName agree, and a variant that takes the decay
	// refuses one outside (0, 1].
	parsed := []struct {
		name  string
		alpha float64
		want  string // "" = rejected
	}{
		{"baseline", 0, "Baseline"},
		{"baseline", 0.5, "Baseline"},
		{"tc", 0, "Threshold Cycling"},
		{"et", 0.25, "ET(0.25)"},
		{"et", 1, "ET(1)"},
		{"etc", 0.75, "ETC(0.75)"},
		{"ettc", 0.25, "ET(0.25)+TC"},
		{"et", 0, ""},
		{"etc", -0.5, ""},
		{"ettc", 1.5, ""},
		{"ET", 0.25, ""},
		{"", 0, ""},
	}
	for _, tc := range parsed {
		cfg, err := ParseVariant(tc.name, tc.alpha)
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("ParseVariant(%q, %g) = %s, want an error", tc.name, tc.alpha, cfg.VariantName())
		case tc.want != "" && err != nil:
			t.Errorf("ParseVariant(%q, %g): %v", tc.name, tc.alpha, err)
		case tc.want != "" && cfg.VariantName() != tc.want:
			t.Errorf("ParseVariant(%q, %g) is %s, want %s", tc.name, tc.alpha, cfg.VariantName(), tc.want)
		}
	}
}

func TestPaperTauSchedule(t *testing.T) {
	s := PaperTauSchedule()
	if len(s) != 13 {
		t.Fatalf("schedule length %d", len(s))
	}
	want := []struct {
		idx int
		tau float64
	}{{0, 1e-3}, {2, 1e-3}, {3, 1e-4}, {6, 1e-4}, {7, 1e-5}, {9, 1e-5}, {10, 1e-6}, {12, 1e-6}}
	for _, w := range want {
		if s[w.idx] != w.tau {
			t.Fatalf("schedule[%d] = %g, want %g", w.idx, s[w.idx], w.tau)
		}
	}
}

// TestETReducesIterationsDistributed keeps its name from when the baseline
// took a thousand iterations to chase labels down this mesh and ET cut the
// chase short (since ties are hashed: baseline 19 iterations, ET(1.0) 38; on
// LFR ET never reduced iterations under either rule). What ET reduces is work
// — Σ TouchedTrajectory, the vertices the sweeps evaluated — at a small loss
// of modularity (Table I), on the mesh and on LFR alike.
func TestETReducesIterationsDistributed(t *testing.T) {
	touched := func(r *Result) (sum int64) {
		for _, ph := range r.Phases {
			for _, v := range ph.TouchedTrajectory {
				sum += v
			}
		}
		return sum
	}
	bandN, bandEdges := gen.BandedMesh(2000, 5)
	lfrN, lfrEdges, _, err := gen.LFR(gen.DefaultLFR(4000, 0.3, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name  string
		n     int64
		edges []graph.RawEdge
	}{{"band", bandN, bandEdges}, {"lfr", lfrN, lfrEdges}} {
		base, err := RunOnEdges(2, in.n, in.edges, Baseline())
		if err != nil {
			t.Fatal(err)
		}
		for _, alpha := range []float64{0.75, 1.0} {
			et, err := RunOnEdges(2, in.n, in.edges, ET(alpha))
			if err != nil {
				t.Fatal(err)
			}
			if bt, at := touched(base), touched(et); at*10 > bt*8 {
				t.Errorf("%s: ET(%g) evaluated %d vertices, baseline %d: want at least 20%% fewer", in.name, alpha, at, bt)
			}
			if et.Modularity < base.Modularity-0.05 {
				t.Errorf("%s: ET(%g) Q=%.4f baseline %.4f", in.name, alpha, et.Modularity, base.Modularity)
			}
		}
	}
}

// TestInactiveFracIsLastIterationsStart pins InactiveFrac under ET and ETC:
// the inactive fraction the phase's last iteration started with, which a
// probe counts at that iteration's fetch, the same bits at every rank count.
// A phase ETC ends skips the iteration whose start reached DefaultETCExit, so
// the last one it ran started below that.
func TestInactiveFracIsLastIterationsStart(t *testing.T) {
	n, edges := gen.BandedMesh(2000, 3)
	for _, variant := range []Config{ET(0.75), ETC(0.75)} {
		var want []PhaseStat
		for _, p := range []int{1, 2, 4} {
			label := fmt.Sprintf("%s p=%d", variant.VariantName(), p)
			cfg := variant
			cfg.Seed = 7 // its ET coins end the first two phases by ETC's exit
			// counts[r][ph] is rank r's inactive count at phase ph's latest fetch.
			counts := make([][]int64, p)
			cfg.oracle.afterFetch = func(st *phaseState) error {
				r := st.dg.Comm.Rank()
				if len(counts[r]) == st.phase {
					counts[r] = append(counts[r], 0)
				}
				var c int64
				for _, in := range st.inactive {
					if in {
						c++
					}
				}
				counts[r][st.phase] = c
				return nil
			}
			res, err := RunOnEdges(p, n, edges, cfg)
			if err != nil {
				t.Fatal(err)
			}
			seen := false // an inactive vertex under ET, an ETC exit under ETC
			for ph, stat := range res.Phases {
				var c int64
				for r := range counts {
					c += counts[r][ph]
				}
				probe := float64(c) / float64(stat.Vertices)
				switch {
				case stat.Exit == ExitETC:
					if !(probe < DefaultETCExit && stat.InactiveFrac >= DefaultETCExit) {
						t.Fatalf("%s phase %d: ETC exit at InactiveFrac %v after an iteration that started at %v", label, ph, stat.InactiveFrac, probe)
					}
					seen = true
				case math.Float64bits(stat.InactiveFrac) != math.Float64bits(probe):
					t.Fatalf("%s phase %d: InactiveFrac %v, the last iteration started with %d of %d inactive", label, ph, stat.InactiveFrac, c, stat.Vertices)
				case !cfg.ETC && c > 0:
					seen = true
				}
			}
			if !seen {
				t.Fatalf("%s: the run exercised nothing (%+v)", label, res.Phases)
			}
			if want == nil {
				want = res.Phases
				continue
			}
			for ph := range want {
				if g, w := res.Phases[ph].InactiveFrac, want[ph].InactiveFrac; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s phase %d: InactiveFrac %v, %v at p=1", label, ph, g, w)
				}
			}
		}
	}
}

// TestETCIterationRunsBaselinesCollectives pins the per-iteration protocol:
// ETC's inactive count rides the modularity allreduce, so its iterations enter
// exactly as many collectives as Baseline's.
func TestETCIterationRunsBaselinesCollectives(t *testing.T) {
	n, edges := gen.BandedMesh(2000, 5)
	const p = 3
	perIteration := func(cfg Config) []int64 {
		ops := make([][]int64, p)
		err := mpi.Run(p, func(c *mpi.Comm) error {
			lo, hi := gio.SegmentRange(int64(len(edges)), c.Rank(), p)
			dg, err := dgraph.Build(c, n, edges[lo:hi], nil)
			if err != nil {
				return err
			}
			rcfg := cfg
			last, at := ProgressEvent{Phase: -1}, int64(0)
			rcfg.Progress = func(ev ProgressEvent) {
				if ev.Kind != ProgressIteration {
					return
				}
				now := c.Stats().CollectiveOps.Load()
				if ev.Phase == last.Phase && ev.Iteration == last.Iteration+1 {
					ops[c.Rank()] = append(ops[c.Rank()], now-at)
				}
				last, at = ev, now
			}
			_, err = Run(dg, rcfg)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return slices.Concat(ops...)
	}
	base, etc := perIteration(Baseline()), perIteration(ETC(0.25))
	if len(base) == 0 || len(etc) == 0 {
		t.Fatalf("too few iterations: %d baseline, %d ETC", len(base), len(etc))
	}
	for _, ops := range slices.Concat(base, etc) {
		if ops != base[0] {
			t.Fatalf("collective ops per iteration: baseline %v, ETC %v", base, etc)
		}
	}
}

func TestMaxPhasesAndIterationsRespected(t *testing.T) {
	_, edges := gen.ErdosRenyi(300, 1500, 2)
	cfg := Baseline()
	cfg.MaxPhases = 2
	cfg.MaxIterations = 3
	res, err := RunOnEdges(2, 300, edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) > 2 {
		t.Fatalf("%d phases", len(res.Phases))
	}
	for _, ph := range res.Phases {
		if ph.Iterations > 3 {
			t.Fatalf("%d iterations", ph.Iterations)
		}
	}
}

func TestRebuildPreservesM2(t *testing.T) {
	// Across phases the coarse graph must preserve the doubled total
	// weight exactly (up to float associativity).
	n, edges, _ := gen.PlantedPartition(6, 25, 0.4, 0.01, 19)
	err := mpi.Run(3, func(c *mpi.Comm) error {
		lo, hi := gio.SegmentRange(int64(len(edges)), c.Rank(), 3)
		dg, err := dgraph.Build(c, n, edges[lo:hi], nil)
		if err != nil {
			return err
		}
		m2 := dg.M2
		cfg := Baseline()
		cfg.fill()
		steps := &StepTimes{}
		st, err := newPhaseState(dg, &cfg, 0, steps)
		if err != nil {
			return err
		}
		if _, err := st.iterate(cfg.Tau); err != nil {
			return err
		}
		ndg, _, err := st.rebuild()
		if err != nil {
			return err
		}
		if err := ndg.Validate(); err != nil {
			return err
		}
		if math.Abs(ndg.M2-m2) > 1e-6*math.Max(1, m2) {
			return fmt.Errorf("M2 %g -> %g across rebuild", m2, ndg.M2)
		}
		if ndg.GlobalN >= dg.GlobalN {
			return fmt.Errorf("no compaction: %d -> %d", dg.GlobalN, ndg.GlobalN)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommunitySizesConsistentAtOwners(t *testing.T) {
	// After a phase, the summed community sizes at owners must equal the
	// global vertex count (every vertex is in exactly one community).
	n, edges, _ := gen.PlantedPartition(5, 20, 0.5, 0.02, 23)
	err := mpi.Run(4, func(c *mpi.Comm) error {
		lo, hi := gio.SegmentRange(int64(len(edges)), c.Rank(), 4)
		dg, err := dgraph.Build(c, n, edges[lo:hi], nil)
		if err != nil {
			return err
		}
		cfg := Baseline()
		cfg.fill()
		st, err := newPhaseState(dg, &cfg, 0, &StepTimes{})
		if err != nil {
			return err
		}
		if _, err := st.iterate(cfg.Tau); err != nil {
			return err
		}
		var localSize int64
		var localA float64
		for lc := int64(0); lc < dg.LocalN; lc++ {
			localSize += st.cSize[lc]
			localA += st.cA[lc]
		}
		totalSize, err := c.AllreduceInt64(localSize, mpi.OpSum)
		if err != nil {
			return err
		}
		if totalSize != n {
			return fmt.Errorf("community sizes sum to %d, want %d", totalSize, n)
		}
		totalA, err := c.AllreduceFloat64(localA, mpi.OpSum)
		if err != nil {
			return err
		}
		if math.Abs(totalA-dg.M2) > 1e-6 {
			return fmt.Errorf("sum A_c = %g, want m2 = %g", totalA, dg.M2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMovesTrajectoryDecays(t *testing.T) {
	// The §IV-B observation motivating ET: the per-iteration migration
	// count collapses as a phase progresses.
	n, edges, _ := gen.PlantedPartition(8, 30, 0.4, 0.01, 91)
	res, err := RunOnEdges(2, n, edges, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	ph := res.Phases[0]
	if len(ph.MovesTrajectory) != ph.Iterations {
		t.Fatalf("moves trajectory length %d != iterations %d", len(ph.MovesTrajectory), ph.Iterations)
	}
	if ph.Iterations >= 3 {
		first := ph.MovesTrajectory[0]
		last := ph.MovesTrajectory[len(ph.MovesTrajectory)-1]
		if first == 0 {
			t.Fatal("no moves in the first iteration")
		}
		if last >= first {
			t.Fatalf("migration did not decay: first=%d last=%d (%v)", first, last, ph.MovesTrajectory)
		}
	}
}
