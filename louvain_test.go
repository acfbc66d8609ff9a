package distlouvain

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

func cliqueEdges() (int64, []Edge) {
	var edges []Edge
	clique := func(vs []int64) {
		for i := range vs {
			for j := i + 1; j < len(vs); j++ {
				edges = append(edges, Edge{U: vs[i], V: vs[j], W: 1})
			}
		}
	}
	clique([]int64{0, 1, 2, 3})
	clique([]int64{4, 5, 6, 7})
	edges = append(edges, Edge{U: 3, V: 4, W: 1})
	return 8, edges
}

func TestDetectQuickstart(t *testing.T) {
	n, edges := cliqueEdges()
	res, err := Detect(n, edges, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities != 2 {
		t.Fatalf("%d communities", res.NumCommunities)
	}
	if _, err := Check(n, edges, res); err != nil {
		t.Fatal(err)
	}
	if res.Runtime <= 0 || res.TotalIterations == 0 || len(res.Phases) == 0 {
		t.Fatalf("missing run metadata: %+v", res)
	}
}

// TestCheckFloatDetect: a float-weighted input is scaled to integers as it
// enters, so Check holds Detect's labels and Q bit for bit at every rank count,
// and every rank count gives the same labels and Q bits.
func TestCheckFloatDetect(t *testing.T) {
	n, edges, _, err := GenerateLFR(600, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range edges {
		edges[i].W = 0.05 + float64((7*i)%23)/9
	}
	var first *Result
	for _, ranks := range []int{1, 2, 4} {
		res, err := Detect(n, edges, Options{Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		cert, err := Check(n, edges, res)
		if err != nil || cert.Scale == 0 {
			t.Fatalf("ranks=%d: certificate %+v, %v", ranks, cert, err)
		}
		if first == nil {
			first = res
		} else if math.Float64bits(res.Modularity) != math.Float64bits(first.Modularity) || !reflect.DeepEqual(res.Communities, first.Communities) {
			t.Fatalf("ranks=%d: Q %.17g, 1 rank %.17g (or other labels)", ranks, res.Modularity, first.Modularity)
		}
	}
}

func TestDetectAllVariants(t *testing.T) {
	n, edges, _, err := GenerateLFR(1500, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{Baseline, ThresholdCycling, EarlyTermination, EarlyTerminationC, EarlyTerminationTC} {
		opt := Options{Ranks: 2, Variant: v, Alpha: 0.25, Seed: 1}
		res, err := Detect(n, edges, opt)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if res.Modularity < 0.5 {
			t.Fatalf("%s: Q=%.3f suspiciously low for mu=0.2 LFR", v, res.Modularity)
		}
	}
}

func TestDetectVariantValidation(t *testing.T) {
	n, edges := cliqueEdges()
	if _, err := Detect(n, edges, Options{Variant: EarlyTermination}); err == nil {
		t.Fatal("expected Alpha validation error")
	}
	if _, err := Detect(n, edges, Options{Variant: Variant(99)}); err == nil {
		t.Fatal("expected unknown-variant error")
	}
	if _, err := Detect(-1, edges, Options{}); err == nil {
		t.Fatal("expected negative-n error")
	}
}

// TestDetectSerialAndShared keeps its name from when a separate shared-memory
// entry point stood beside DetectSerial: that run is Detect at one rank now.
func TestDetectSerialAndShared(t *testing.T) {
	n, edges := cliqueEdges()
	s, err := DetectSerial(n, edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCommunities != 2 {
		t.Fatalf("serial: %d communities", s.NumCommunities)
	}
}

func TestVariantStrings(t *testing.T) {
	for v, want := range map[Variant]string{
		Baseline: "Baseline", ThresholdCycling: "Threshold Cycling",
		EarlyTermination: "ET", EarlyTerminationC: "ETC", EarlyTerminationTC: "ET+TC",
		Variant(42): "Variant(42)",
	} {
		if v.String() != want {
			t.Fatalf("%d: %q != %q", int(v), v.String(), want)
		}
	}
}

func TestGroundTruthScoring(t *testing.T) {
	n, edges, truth, err := GenerateSSCA2(2000, 15, 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Detect(n, edges, Options{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	score, err := CompareToGroundTruth(res.Communities, truth)
	if err != nil {
		t.Fatal(err)
	}
	// Near-disjoint cliques: detection should recover them almost exactly.
	if score.FScore < 0.9 || score.Recall < 0.9 {
		t.Fatalf("SSCA2 recovery poor: %+v", score)
	}
}

func TestWorkloadGenerators(t *testing.T) {
	if n, edges, err := GenerateRMAT(8, 8, 1); err != nil || n != 256 || len(edges) == 0 {
		t.Fatalf("RMAT: n=%d len=%d err=%v", n, len(edges), err)
	}
	if n, edges := GenerateBandedMesh(100, 3); n != 100 || len(edges) == 0 {
		t.Fatalf("mesh: n=%d len=%d", n, len(edges))
	}
	if _, _, err := GenerateSmallWorld(100, 4, 0.1, 2); err != nil {
		t.Fatal(err)
	}
	if n, edges := GenerateRandom(50, 100, 3); n != 50 || len(edges) != 100 {
		t.Fatalf("random: n=%d len=%d", n, len(edges))
	}
}

func TestGraphFileRoundTrip(t *testing.T) {
	n, edges := cliqueEdges()
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := WriteGraph(path, n, edges); err != nil {
		t.Fatal(err)
	}
	n2, edges2, err := ReadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != n || len(edges2) != len(edges) {
		t.Fatalf("round trip: n=%d edges=%d", n2, len(edges2))
	}
	res, err := Detect(n2, edges2, Options{Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities != 2 {
		t.Fatalf("detection on re-read graph: %d communities", res.NumCommunities)
	}
}
