package core

import (
	"math"
	"testing"

	"distlouvain/internal/gen"
	"distlouvain/internal/graph"
	"distlouvain/internal/par"
)

// The properties of the ΔQ tie rule (tieBefore, DESIGN §8). Ties used to break
// towards the smallest community ID; on a naturally numbered uniform mesh that
// made every synchronous sweep chase labels (BandedMesh(8000, 6): 3305
// iterations). The first and the last test below fail on that rule; the middle
// one holds the new one to what the old one also gave: no loss of modularity.
// That the result does not depend on how the graph is split — the rule hashes
// global community IDs, never slots — is property 2 of TestRunProperties.

// relabel renames the vertices of a graph by a seeded random permutation.
func relabel(n int64, edges []graph.RawEdge, seed uint64) []graph.RawEdge {
	perm := make([]int64, n)
	for i := range perm {
		perm[i] = int64(i)
	}
	rng := par.NewXoshiro256(seed)
	for i := n - 1; i > 0; i-- {
		j := rng.Int63n(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := make([]graph.RawEdge, len(edges))
	for i, e := range edges {
		out[i] = graph.RawEdge{U: perm[e.U], V: perm[e.V], W: e.W}
	}
	return out
}

// TestTieRuleRelabelling: the paper takes an "arbitrarily ordered input", so
// how long a mesh takes must not depend on how its vertices are numbered. The
// natural numbering and three random ones finish within 2× of one another's
// iteration count, all under 80, at the same modularity to 0.01. (Smallest-ID
// ties: 901 iterations for the natural numbering, 18–21 for the random ones.)
func TestTieRuleRelabelling(t *testing.T) {
	n, edges := gen.BandedMesh(2000, 6)
	inputs := [][]graph.RawEdge{edges, relabel(n, edges, 1), relabel(n, edges, 2), relabel(n, edges, 3)}
	var its []int
	var qs []float64
	for i, in := range inputs {
		res, err := RunOnEdges(2, n, in, Baseline())
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalIterations >= 80 {
			t.Errorf("numbering %d: %d iterations, want under 80", i, res.TotalIterations)
		}
		its = append(its, res.TotalIterations)
		qs = append(qs, res.Modularity)
	}
	for i := range its {
		for j := range its {
			if its[i] > 2*its[j] {
				t.Errorf("numbering %d takes %d iterations, numbering %d takes %d: more than 2× apart", i, its[i], j, its[j])
			}
			if math.Abs(qs[i]-qs[j]) > 0.01 {
				t.Errorf("numbering %d ends at Q=%.6f, numbering %d at %.6f", i, qs[i], j, qs[j])
			}
		}
	}
}

// TestTieRuleQualityFloor: the rule changes which of several equally good
// moves is taken, so modularity moves a little in either direction per input
// and must not move down on average. The constants are the baseline's
// modularity at cd63276, the last commit with smallest-ID ties (2 ranks;
// integer weights, so any rank count gives the same bits). Per input the floor
// is 0.01 below that (worst measured: LFR seed 2, −0.0062), per family 0.005
// below its mean (measured: band +0.0002, LFR −0.0029, R-MAT +0.0000).
func TestTieRuleQualityFloor(t *testing.T) {
	type input struct {
		n      int64
		edges  []graph.RawEdge
		parent float64
	}
	families := map[string][]input{}
	n, edges := gen.BandedMesh(8000, 6)
	families["band 8000"] = []input{{n, edges, 0.957267385}}
	for i, q := range []float64{0.663955147, 0.663984632, 0.659619435} {
		n, edges, _, err := gen.LFR(gen.DefaultLFR(20000, 0.3, uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		families["LFR 20k"] = append(families["LFR 20k"], input{n, edges, q})
	}
	for i, q := range []float64{0.100195111, 0.107847915, 0.101654718} {
		n, edges, err := gen.RMAT(14, 8, 0.57, 0.19, 0.19, 0.05, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		families["R-MAT 14"] = append(families["R-MAT 14"], input{n, edges, q})
	}
	for name, ins := range families {
		var sum, parentSum float64
		for i, in := range ins {
			res, err := RunOnEdges(2, in.n, in.edges, Baseline())
			if err != nil {
				t.Fatal(err)
			}
			if res.Modularity < in.parent-0.01 {
				t.Errorf("%s seed %d: Q=%.6f, smallest-ID ties gave %.6f", name, i+1, res.Modularity, in.parent)
			}
			sum += res.Modularity
			parentSum += in.parent
		}
		if k := float64(len(ins)); sum/k < parentSum/k-0.005 {
			t.Errorf("%s: mean Q=%.6f, smallest-ID ties gave %.6f", name, sum/k, parentSum/k)
		}
	}
}

// TestTieRuleETKeepsMeshQuality: ET and ETC at α = 0.25 end the mesh within
// 0.005 of the baseline's modularity. Under smallest-ID ties they ended it at
// 0.872 against 0.957 — the decay froze vertices in the middle of the label
// chase — which ROADMAP carried as an unexplained anomaly.
func TestTieRuleETKeepsMeshQuality(t *testing.T) {
	n, edges := gen.BandedMesh(8000, 6)
	base, err := RunOnEdges(2, n, edges, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{ET(0.25), ETC(0.25)} {
		res, err := RunOnEdges(2, n, edges, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Modularity-base.Modularity) > 0.005 {
			t.Errorf("%s: Q=%.6f, baseline %.6f", cfg.VariantName(), res.Modularity, base.Modularity)
		}
	}
}
