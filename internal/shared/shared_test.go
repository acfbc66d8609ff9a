package shared

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"distlouvain/internal/gen"
	"distlouvain/internal/graph"
	"distlouvain/internal/seq"
)

func twoCliques() *graph.CSR {
	b := graph.NewBuilder(8)
	clique := func(vs []int64) {
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				if err := b.AddEdge(vs[i], vs[j], 1); err != nil {
					panic(err)
				}
			}
		}
	}
	clique([]int64{0, 1, 2, 3})
	clique([]int64{4, 5, 6, 7})
	if err := b.AddEdge(3, 4, 1); err != nil {
		panic(err)
	}
	return b.Build()
}

func TestRunTwoCliques(t *testing.T) {
	for _, threads := range []int{1, 2, 4} {
		res := Run(twoCliques(), Options{Threads: threads})
		if res.Communities != 2 {
			t.Fatalf("threads=%d: %d communities (comm=%v)", threads, res.Communities, res.Comm)
		}
		want := 24.0/26.0 - 0.5
		if math.Abs(res.Modularity-want) > 1e-12 {
			t.Fatalf("threads=%d: Q=%g want %g", threads, res.Modularity, want)
		}
	}
}

func TestRunMatchesSerialQuality(t *testing.T) {
	n, edges, _ := gen.PlantedPartition(8, 25, 0.4, 0.005, 21)
	g := gen.Build(n, edges)
	serial := seq.Run(g, seq.Options{})
	parallel := Run(g, Options{Threads: 4})
	// Different local optima are legal; quality must be comparable
	// ("modularity difference under 1%" per the paper's Table III note).
	if parallel.Modularity < serial.Modularity*0.97 {
		t.Fatalf("parallel Q=%.4f far below serial Q=%.4f", parallel.Modularity, serial.Modularity)
	}
	// And the reported modularity must be exact for its own assignment.
	if math.Abs(seq.Modularity(g, parallel.Comm)-parallel.Modularity) > 1e-9 {
		t.Fatal("reported modularity does not match assignment")
	}
}

func TestRunEmptyGraph(t *testing.T) {
	res := Run(graph.NewBuilder(0).Build(), Options{})
	if len(res.Comm) != 0 || res.Modularity != 0 {
		t.Fatalf("%+v", res)
	}
}

func TestRunNoEdges(t *testing.T) {
	res := Run(graph.NewBuilder(5).Build(), Options{Threads: 2})
	if res.Communities != 5 {
		t.Fatalf("isolated vertices merged: %v", res.Comm)
	}
}

func TestRunMaxCaps(t *testing.T) {
	_, edges := gen.ErdosRenyi(150, 600, 4)
	g := gen.Build(150, edges)
	res := Run(g, Options{MaxPhases: 1, MaxIterations: 2, Threads: 2})
	if len(res.Phases) != 1 || res.Phases[0].Iterations > 2 {
		t.Fatalf("caps ignored: %+v", res.Phases)
	}
}

// TestETAlphaOneReducesIterations keeps its name from when the baseline needed
// hundreds of iterations to chase labels down this mesh and ET cut the chase
// short (PR 22 ended the chase: baseline 19 iterations, ET(1.0) 38). What ET
// reduces is work — vertices evaluated — at a small modularity loss (Table I),
// here and on LFR alike, so that is what is asserted.
func TestETAlphaOneReducesIterations(t *testing.T) {
	n, edges := gen.BandedMesh(3000, 6)
	g := gen.Build(n, edges)
	touched := func(r *Result) (sum int64) {
		for _, ph := range r.Phases {
			sum += ph.Touched
		}
		return sum
	}
	base := Run(g, Options{Threads: 2, Alpha: 0, Seed: 5})
	if want := int64(base.Phases[0].Iterations) * n; base.Phases[0].Touched != want {
		t.Fatalf("baseline phase 0 evaluated %d vertices, want every vertex every iteration = %d", base.Phases[0].Touched, want)
	}
	for _, alpha := range []float64{0.75, 1.0} {
		et := Run(g, Options{Threads: 2, Alpha: alpha, Seed: 5})
		if bt, at := touched(base), touched(et); at*10 > bt*8 {
			t.Fatalf("ET(%g) evaluated %d vertices, baseline %d: want at least 20%% fewer", alpha, at, bt)
		}
		if et.Modularity < base.Modularity-0.05 {
			t.Fatalf("ET(%g) Q=%.4f, baseline Q=%.4f", alpha, et.Modularity, base.Modularity)
		}
	}
}

func TestETMarksVerticesInactive(t *testing.T) {
	n, edges := gen.BandedMesh(2000, 4)
	g := gen.Build(n, edges)
	res := Run(g, Options{Threads: 2, Alpha: 0.75, Seed: 9, MaxPhases: 1})
	if res.Phases[0].InactiveAtEnd == 0 {
		t.Fatal("no vertices went inactive with alpha=0.75")
	}
	base := Run(g, Options{Threads: 2, Alpha: 0, MaxPhases: 1})
	if base.Phases[0].InactiveAtEnd != 0 {
		t.Fatal("baseline marked vertices inactive")
	}
}

func TestVertexFollowing(t *testing.T) {
	// Star with pendant vertices: all leaves should follow the hub.
	b := graph.NewBuilder(6)
	for v := int64(1); v < 6; v++ {
		if err := b.AddEdge(0, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	init := FollowVertices(g)
	for v := 1; v < 6; v++ {
		if init[v] != 0 {
			t.Fatalf("leaf %d followed to %d", v, init[v])
		}
	}
	if init[0] != 0 {
		t.Fatalf("hub moved to %d", init[0])
	}
	if CountFollowed(init) != 5 {
		t.Fatalf("followed = %d", CountFollowed(init))
	}
}

func TestVertexFollowingIsolatedPair(t *testing.T) {
	b := graph.NewBuilder(4)
	if err := b.AddEdge(2, 3, 1); err != nil {
		t.Fatal(err)
	}
	init := FollowVertices(b.Build())
	if init[2] != 2 || init[3] != 2 {
		t.Fatalf("pair should anchor at 2: %v", init)
	}
	if init[0] != 0 || init[1] != 1 {
		t.Fatalf("isolated vertices moved: %v", init)
	}
}

func TestVertexFollowingSelfLoopOnly(t *testing.T) {
	b := graph.NewBuilder(2)
	if err := b.AddEdge(0, 0, 2); err != nil {
		t.Fatal(err)
	}
	init := FollowVertices(b.Build())
	if init[0] != 0 {
		t.Fatalf("self-loop vertex moved: %v", init)
	}
}

func TestVertexFollowingEndToEnd(t *testing.T) {
	// A planted-partition core with pendants hanging off vertex 0.
	n, edges, _ := gen.PlantedPartition(4, 20, 0.5, 0.01, 33)
	total := n + 10
	b := graph.NewBuilder(total)
	if err := b.AddAll(edges); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := b.AddEdge(n+i, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	withVF := Run(g, Options{Threads: 2, VertexFollowing: true})
	without := Run(g, Options{Threads: 2})
	if withVF.Modularity < without.Modularity-0.03 {
		t.Fatalf("VF hurt quality: %.4f vs %.4f", withVF.Modularity, without.Modularity)
	}
	// Pendants end in the same community as the hub.
	for i := int64(0); i < 10; i++ {
		if withVF.Comm[n+i] != withVF.Comm[0] {
			t.Fatalf("pendant %d not with hub", n+i)
		}
	}
}

func TestRuntimeRecorded(t *testing.T) {
	res := Run(twoCliques(), Options{})
	if res.Runtime <= 0 {
		t.Fatal("runtime not recorded")
	}
}

// Property: reported modularity is always exact for the returned assignment
// and labels are dense, across thread counts and heuristics.
func TestQuickRunConsistency(t *testing.T) {
	f := func(seed uint64, cfg uint8) bool {
		threads := int(cfg%4) + 1
		alpha := float64(cfg%3) * 0.4
		vf := cfg&16 != 0
		n, edges, _ := gen.PlantedPartition(5, 15, 0.5, 0.02, seed)
		g := gen.Build(n, edges)
		res := Run(g, Options{Threads: threads, Alpha: alpha, VertexFollowing: vf, Seed: seed})
		if int64(len(res.Comm)) != n {
			return false
		}
		maxLabel := int64(-1)
		seen := map[int64]bool{}
		for _, c := range res.Comm {
			if c < 0 {
				return false
			}
			seen[c] = true
			if c > maxLabel {
				maxLabel = c
			}
		}
		if int64(len(seen)) != res.Communities || maxLabel != res.Communities-1 {
			return false
		}
		return math.Abs(seq.Modularity(g, res.Comm)-res.Modularity) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// phasesMonotone is the phase-over-phase invariant of Run. Every phase but the
// last was applied, which takes a gain above τ, so their Q strictly increases.
// The last phase was measured and then discarded (Run breaks before applying a
// phase that gained τ or less), so it may sit anywhere below the previous Q + τ
// — a coarse graph's first synchronous sweep can jointly lower Q, and a phase
// has nothing to roll its first iteration back to — and the result is the last
// applied phase's assignment: the final Q is that phase's Q and no phase beats
// it by more than τ.
func phasesMonotone(t *testing.T, res *Result) bool {
	t.Helper()
	ok := true
	last := len(res.Phases) - 1
	for i := 1; i < last; i++ {
		if res.Phases[i].Modularity <= res.Phases[i-1].Modularity {
			t.Errorf("applied phase %d has Q %.9f after %.9f", i, res.Phases[i].Modularity, res.Phases[i-1].Modularity)
			ok = false
		}
	}
	for i, p := range res.Phases {
		if res.Modularity < p.Modularity-DefaultTau {
			t.Errorf("final Q %.9f is below phase %d's %.9f", res.Modularity, i, p.Modularity)
			ok = false
		}
	}
	if last >= 1 && math.Abs(res.Modularity-res.Phases[last-1].Modularity) > 1e-9 && math.Abs(res.Modularity-res.Phases[last].Modularity) > 1e-9 {
		t.Errorf("final Q %.9f is neither of the last two phases' (%.9f, %.9f)", res.Modularity, res.Phases[last-1].Modularity, res.Phases[last].Modularity)
		ok = false
	}
	return ok
}

// Property: phasesMonotone on ER(120, 500) graphs. The generator is seeded, so
// the same 15 graphs are drawn on every run.
func TestQuickPhasesMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		n, edges := gen.ErdosRenyi(120, 500, seed)
		return phasesMonotone(t, Run(gen.Build(n, edges), Options{Threads: 2, Seed: seed}))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestDiscardedLastPhaseLosesNothing pins two graphs on which the time-seeded
// version of the property above used to fail about one run in seven (it
// demanded every phase's Q within 0.05 of the one before): the last phase, on
// a 9-vertex coarse graph, ends 0.05–0.06 below the one before. That loss never
// reaches the result — Run had already kept the previous phase's assignment —
// so the finding is a reporting one: Phases lists a phase that was not applied.
// Which graphs show it depends on the trajectory; these two are the first
// seeds par.Mix64(i), i = 1, 2, …, that do under the hashed tie rule and the
// return rule (i = 97, 180; about one in a hundred and thirty does. Before the
// return rule i = 89 did too, whose last phase now loses 0.005).
func TestDiscardedLastPhaseLosesNothing(t *testing.T) {
	for _, seed := range []uint64{0x4f5da978776a9db1, 0xae6f10cfefb4ae24} {
		n, edges := gen.ErdosRenyi(120, 500, seed)
		g := gen.Build(n, edges)
		res := Run(g, Options{Threads: 2, Seed: seed})
		if !phasesMonotone(t, res) {
			t.Fatalf("seed %#x", seed)
		}
		last := len(res.Phases) - 1
		if last < 1 || res.Phases[last].Modularity > res.Phases[last-1].Modularity-0.05 {
			t.Fatalf("seed %#x: the last phase no longer loses modularity (%v); pick another graph", seed, res.Phases)
		}
		if math.Abs(res.Modularity-res.Phases[last-1].Modularity) > 1e-12 {
			t.Fatalf("seed %#x: final Q %.12f, the last applied phase had %.12f", seed, res.Modularity, res.Phases[last-1].Modularity)
		}
		if q := seq.Modularity(g, res.Comm); math.Abs(q-res.Modularity) > 1e-12 {
			t.Fatalf("seed %#x: reported Q %.12f, recomputed %.12f", seed, res.Modularity, q)
		}
	}
}

func TestSharedDeterministicSameSeed(t *testing.T) {
	n, edges, _ := gen.PlantedPartition(6, 20, 0.5, 0.02, 19)
	g := gen.Build(n, edges)
	a := Run(g, Options{Threads: 3, Alpha: 0.5, Seed: 4})
	b := Run(g, Options{Threads: 3, Alpha: 0.5, Seed: 4})
	if a.Modularity != b.Modularity || a.TotalIterations != b.TotalIterations {
		t.Fatalf("same-seed runs diverged: %g/%g, %d/%d",
			a.Modularity, b.Modularity, a.TotalIterations, b.TotalIterations)
	}
	for v := range a.Comm {
		if a.Comm[v] != b.Comm[v] {
			t.Fatalf("assignment differs at %d", v)
		}
	}
}

func TestSharedThreadCountInvariantQuality(t *testing.T) {
	// Thread count changes scheduling but the double-buffered sweep makes
	// decisions from snapshots, so results must be identical across teams.
	n, edges, _ := gen.PlantedPartition(5, 24, 0.5, 0.02, 23)
	g := gen.Build(n, edges)
	ref := Run(g, Options{Threads: 1, Seed: 2})
	for _, threads := range []int{2, 4, 8} {
		got := Run(g, Options{Threads: threads, Seed: 2})
		if got.Modularity != ref.Modularity || got.TotalIterations != ref.TotalIterations {
			t.Fatalf("threads=%d diverged from single-thread: Q %g vs %g",
				threads, got.Modularity, ref.Modularity)
		}
		for v := range ref.Comm {
			if got.Comm[v] != ref.Comm[v] {
				t.Fatalf("threads=%d: assignment differs at %d", threads, v)
			}
		}
	}
}
