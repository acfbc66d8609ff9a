// Package quality implements the ground-truth comparison metrics of the
// paper's §V-D: precision, recall and F-score computed from community
// assignment overlaps following the methodology of Halappanavar et al.
// (HPEC'17), plus normalized mutual information as an additional standard
// measure.
package quality

import (
	"fmt"
	"math"
)

// Score is the outcome of a ground-truth comparison.
type Score struct {
	Precision float64
	Recall    float64
	FScore    float64
	NMI       float64
	// ARI is the adjusted Rand index: pair-counting agreement corrected
	// for chance (1 = identical partitions, ~0 = random).
	ARI float64
	// DetectedCommunities and TruthCommunities count distinct labels.
	DetectedCommunities int64
	TruthCommunities    int64
}

// Compare evaluates a detected assignment against ground truth. Both slices
// assign a community label to each vertex (labels need not be dense).
//
// Following the HPEC'17 methodology: each detected community is matched to
// the ground-truth community it overlaps most; precision is the
// vertex-weighted fraction of each detected community lying inside its
// match. Recall mirrors this from the ground-truth side (each true
// community matched to its best detected community). F-score is their
// harmonic mean.
func Compare(detected, truth []int64) (Score, error) {
	if len(detected) != len(truth) {
		return Score{}, fmt.Errorf("quality: assignment lengths differ: %d vs %d", len(detected), len(truth))
	}
	n := len(detected)
	if n == 0 {
		return Score{}, fmt.Errorf("quality: empty assignments")
	}

	overlap := make(map[pair]int64)
	dSize := make(map[int64]int64)
	tSize := make(map[int64]int64)
	for v := 0; v < n; v++ {
		overlap[pair{detected[v], truth[v]}]++
		dSize[detected[v]]++
		tSize[truth[v]]++
	}

	// Best overlap per detected community and per truth community.
	bestD := make(map[int64]int64)
	bestT := make(map[int64]int64)
	for p, c := range overlap {
		if c > bestD[p.d] {
			bestD[p.d] = c
		}
		if c > bestT[p.t] {
			bestT[p.t] = c
		}
	}
	var precNum, recNum int64
	for _, best := range bestD {
		precNum += best
	}
	for _, best := range bestT {
		recNum += best
	}
	s := Score{
		Precision:           float64(precNum) / float64(n),
		Recall:              float64(recNum) / float64(n),
		DetectedCommunities: int64(len(dSize)),
		TruthCommunities:    int64(len(tSize)),
	}
	if s.Precision+s.Recall > 0 {
		s.FScore = 2 * s.Precision * s.Recall / (s.Precision + s.Recall)
	}
	s.NMI = nmi(overlap, dSize, tSize, int64(n))
	s.ARI = ari(overlap, dSize, tSize, int64(n))
	return s, nil
}

// pair keys the detected×truth contingency table.
type pair struct{ d, t int64 }

// nmi computes normalized mutual information between the two labelings,
// normalized by the arithmetic mean of the entropies (the convention of
// Lancichinetti & Fortunato's benchmark comparisons).
func nmi(overlap map[pair]int64, dSize, tSize map[int64]int64, n int64) float64 {
	fn := float64(n)
	var mi float64
	for p, c := range overlap {
		pxy := float64(c) / fn
		px := float64(dSize[p.d]) / fn
		py := float64(tSize[p.t]) / fn
		if pxy > 0 {
			mi += pxy * math.Log(pxy/(px*py))
		}
	}
	var hd, ht float64
	for _, c := range dSize {
		p := float64(c) / fn
		hd -= p * math.Log(p)
	}
	for _, c := range tSize {
		p := float64(c) / fn
		ht -= p * math.Log(p)
	}
	if hd+ht == 0 {
		// Both partitions are single communities: identical labelings.
		return 1
	}
	return 2 * mi / (hd + ht)
}

// ari computes the adjusted Rand index from the contingency table:
// (Σ_ij C(n_ij,2) − E) / (max − E) with E the chance-expected pair
// agreement. Uses float arithmetic throughout; the binomials of counts up
// to 2^31 stay well within float64 precision for the comparison's purpose.
func ari(overlap map[pair]int64, dSize, tSize map[int64]int64, n int64) float64 {
	choose2 := func(x int64) float64 { return float64(x) * float64(x-1) / 2 }
	var sumIJ, sumD, sumT float64
	for _, c := range overlap {
		sumIJ += choose2(c)
	}
	for _, c := range dSize {
		sumD += choose2(c)
	}
	for _, c := range tSize {
		sumT += choose2(c)
	}
	total := choose2(n)
	if total == 0 {
		return 1
	}
	expected := sumD * sumT / total
	maxIndex := (sumD + sumT) / 2
	if maxIndex == expected {
		// Degenerate partitions (e.g. both all-singletons or both
		// one-community): identical by construction of the overlap.
		return 1
	}
	return (sumIJ - expected) / (maxIndex - expected)
}
