package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
	"distlouvain/internal/seq"
)

func twoCliquesEdges() (int64, []graph.RawEdge) {
	var edges []graph.RawEdge
	clique := func(vs []int64) {
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				edges = append(edges, graph.RawEdge{U: vs[i], V: vs[j], W: 1})
			}
		}
	}
	clique([]int64{0, 1, 2, 3})
	clique([]int64{4, 5, 6, 7})
	edges = append(edges, graph.RawEdge{U: 3, V: 4, W: 1})
	return 8, edges
}

func TestDistributedTwoCliques(t *testing.T) {
	n, edges := twoCliquesEdges()
	for _, p := range []int{1, 2, 3, 4} {
		res, err := RunOnEdges(p, n, edges, Baseline())
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if res.Communities != 2 {
			t.Fatalf("p=%d: %d communities (%v)", p, res.Communities, res.GlobalComm)
		}
		want := 24.0/26.0 - 0.5
		if math.Abs(res.Modularity-want) > 1e-9 {
			t.Fatalf("p=%d: Q=%g want %g", p, res.Modularity, want)
		}
		for v := 1; v < 4; v++ {
			if res.GlobalComm[v] != res.GlobalComm[0] {
				t.Fatalf("p=%d: clique 1 split: %v", p, res.GlobalComm)
			}
		}
		for v := 5; v < 8; v++ {
			if res.GlobalComm[v] != res.GlobalComm[4] {
				t.Fatalf("p=%d: clique 2 split: %v", p, res.GlobalComm)
			}
		}
	}
}

func TestDistributedModularityExact(t *testing.T) {
	// The reported modularity must match the serial recomputation of the
	// returned assignment, for every rank count and variant.
	n, edges, _ := gen.PlantedPartition(6, 20, 0.5, 0.01, 41)
	g := gen.Build(n, edges)
	for _, p := range []int{1, 2, 4} {
		for _, cfg := range []Config{Baseline(), ThresholdCycling(), ET(0.25), ETC(0.75)} {
			label := fmt.Sprintf("p=%d %s", p, cfg.VariantName())
			res, err := RunOnEdges(p, n, edges, cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkResult(t, label, g, res)
		}
	}
}

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

func TestDistributedLabelsDense(t *testing.T) {
	n, edges, _ := gen.PlantedPartition(5, 16, 0.5, 0.02, 9)
	res, err := RunOnEdges(3, n, edges, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "p=3", gen.Build(n, edges), res)
}

func TestDistributedEmptyRanks(t *testing.T) {
	// More ranks than vertices.
	n, edges := twoCliquesEdges()
	res, err := RunOnEdges(12, n, edges, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if res.Communities != 2 {
		t.Fatalf("%d communities", res.Communities)
	}
}

func TestDistributedNoEdges(t *testing.T) {
	res, err := RunOnEdges(3, 7, nil, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if res.Communities != 7 || res.Modularity != 0 {
		t.Fatalf("comms=%d Q=%g", res.Communities, res.Modularity)
	}
}

func TestDistributedSelfLoopsOnly(t *testing.T) {
	edges := []graph.RawEdge{{U: 0, V: 0, W: 2}, {U: 1, V: 1, W: 3}}
	res, err := RunOnEdges(2, 2, edges, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if res.Communities != 2 {
		t.Fatalf("self-loop vertices merged: %v", res.GlobalComm)
	}
}

func TestDistributedWeightedGraph(t *testing.T) {
	// Two triangles bridged by a *heavy* edge: with enough weight the
	// bridge dominates and the optimum merges across it. Verify the
	// distributed version agrees with serial Louvain on this weighted case.
	edges := []graph.RawEdge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 3, V: 5, W: 1},
		{U: 2, V: 3, W: 10},
	}
	g := gen.Build(6, edges)
	serial := seq.Run(g, seq.Options{})
	res, err := RunOnEdges(2, 6, edges, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Modularity-serial.Modularity) > 0.05 {
		t.Fatalf("weighted: distributed Q=%.4f serial %.4f", res.Modularity, serial.Modularity)
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

func TestETCExitsPhases(t *testing.T) {
	n, edges := gen.BandedMesh(2000, 5)
	res, err := RunOnEdges(2, n, edges, ETC(0.75))
	if err != nil {
		t.Fatal(err)
	}
	foundETCExit := false
	for _, ph := range res.Phases {
		if ph.Exit == ExitETC {
			foundETCExit = true
			if ph.InactiveFrac < DefaultETCExit {
				t.Fatalf("ETC exit with inactive frac %.2f", ph.InactiveFrac)
			}
		}
	}
	if !foundETCExit {
		t.Log("note: no phase ended via ETC on this input (allowed, but unexpected)")
	}
}

func TestQTrajectoryRecorded(t *testing.T) {
	n, edges, _ := gen.PlantedPartition(6, 20, 0.5, 0.01, 13)
	res, err := RunOnEdges(2, n, edges, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) == 0 {
		t.Fatal("no phases recorded")
	}
	for _, ph := range res.Phases {
		if len(ph.QTrajectory) != ph.Iterations {
			t.Fatalf("trajectory length %d != iterations %d", len(ph.QTrajectory), ph.Iterations)
		}
	}
	if res.Runtime <= 0 || res.Steps.Total <= 0 {
		t.Fatal("timing not recorded")
	}
	if res.Traffic.CollectiveOps == 0 {
		t.Fatal("traffic not recorded")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	n, edges, _ := gen.PlantedPartition(5, 18, 0.5, 0.02, 31)
	cfg := ET(0.5)
	cfg.Seed = 99
	a, err := RunOnEdges(3, n, edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnEdges(3, n, edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameTrajectory(t, "same-seed rerun", b, a)
}

func TestIntraRankThreads(t *testing.T) {
	// MPI+OpenMP: multiple worker goroutines per rank must not change
	// correctness invariants.
	n, edges, _ := gen.PlantedPartition(6, 20, 0.4, 0.01, 8)
	g := gen.Build(n, edges)
	for _, threads := range []int{1, 2, 4} {
		cfg := Baseline()
		cfg.Threads = threads
		res, err := RunOnEdges(2, n, edges, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, fmt.Sprintf("threads=%d", threads), g, res)
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

// Property: for random planted graphs, any rank count and any variant, the
// distributed result is internally consistent (exact modularity, dense
// labels, every vertex labelled).
func TestQuickDistributedConsistency(t *testing.T) {
	variants := []Config{Baseline(), ThresholdCycling(), ET(0.25), ET(0.75), ETC(0.25), ETWithTC(0.25)}
	f := func(seed uint64, pRaw, vRaw uint8) bool {
		p := int(pRaw%4) + 1
		cfg := variants[int(vRaw)%len(variants)]
		cfg.Seed = seed
		n, edges, _ := gen.PlantedPartition(4, 15, 0.5, 0.02, seed)
		res, err := RunOnEdges(p, n, edges, cfg)
		if err != nil {
			return false
		}
		checkResult(t, fmt.Sprintf("seed=%d p=%d %s", seed, p, cfg.VariantName()), gen.Build(n, edges), res)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestStarAcrossRanks(t *testing.T) {
	// A star whose hub lives on rank 0 and whose leaves are spread across
	// all other ranks: every leaf must converge into the hub's community,
	// exercising heavy cross-rank community migration toward one owner.
	n := int64(64)
	var edges []graph.RawEdge
	for v := int64(1); v < n; v++ {
		edges = append(edges, graph.RawEdge{U: 0, V: v, W: 1})
	}
	res, err := RunOnEdges(8, n, edges, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if res.Communities != 1 {
		t.Fatalf("star split into %d communities", res.Communities)
	}
	for v := int64(1); v < n; v++ {
		if res.GlobalComm[v] != res.GlobalComm[0] {
			t.Fatalf("leaf %d not with hub", v)
		}
	}
	// A star has zero modularity under one community (Q = E/m2 - 1).
	if res.Modularity > 1e-9 || res.Modularity < -0.6 {
		t.Fatalf("star modularity %g out of range", res.Modularity)
	}
}

func TestHeavyWeightsAcrossRanks(t *testing.T) {
	// Extreme weight skew: a chain with alternating huge/small weights.
	// Heavy pairs must merge; the distributed result must agree with the
	// serial reference exactly in community structure.
	n := int64(40)
	var edges []graph.RawEdge
	for v := int64(0); v+1 < n; v++ {
		w := 1e-3
		if v%2 == 0 {
			w = 1e6
		}
		edges = append(edges, graph.RawEdge{U: v, V: v + 1, W: w})
	}
	res, err := RunOnEdges(4, n, edges, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v+1 < n; v += 2 {
		if res.GlobalComm[v] != res.GlobalComm[v+1] {
			t.Fatalf("heavy pair (%d,%d) split", v, v+1)
		}
	}
	checkResult(t, "weighted chain", gen.Build(n, edges), res)
}

func TestDisconnectedComponents(t *testing.T) {
	// Several disconnected cliques spread over ranks: each must form its
	// own community and Q must be positive and exact.
	var edges []graph.RawEdge
	const k, size = 6, 5
	n := int64(k * size)
	for c := int64(0); c < k; c++ {
		base := c * size
		for i := int64(0); i < size; i++ {
			for j := i + 1; j < size; j++ {
				edges = append(edges, graph.RawEdge{U: base + i, V: base + j, W: 1})
			}
		}
	}
	res, err := RunOnEdges(5, n, edges, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if res.Communities != k {
		t.Fatalf("%d communities for %d disconnected cliques", res.Communities, k)
	}
	// Q for k equal disconnected cliques merged per component: 1 - 1/k.
	want := 1 - 1.0/float64(k)
	if math.Abs(res.Modularity-want) > 1e-9 {
		t.Fatalf("Q = %g, want %g", res.Modularity, want)
	}
}

func TestETCWeightedConsistency(t *testing.T) {
	// ETC on a weighted LFR graph keeps the exactness invariant.
	n, edges, _, err := gen.LFR(gen.DefaultLFR(1500, 0.3, 77))
	if err != nil {
		t.Fatal(err)
	}
	// Scale some weights to exercise float paths.
	for i := range edges {
		if i%3 == 0 {
			edges[i].W = 2.5
		}
	}
	res, err := RunOnEdges(3, n, edges, ETC(0.25))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "weighted ETC", gen.Build(n, edges), res)
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
