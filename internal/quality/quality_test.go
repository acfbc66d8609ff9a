package quality

import (
	"math"
	"testing"
	"testing/quick"
)

func TestComparePerfectMatch(t *testing.T) {
	truth := []int64{0, 0, 1, 1, 2, 2}
	detected := []int64{5, 5, 9, 9, 7, 7} // same partition, different labels
	s, err := Compare(detected, truth)
	if err != nil {
		t.Fatal(err)
	}
	if s.Precision != 1 || s.Recall != 1 || s.FScore != 1 {
		t.Fatalf("perfect match scored %+v", s)
	}
	if math.Abs(s.NMI-1) > 1e-12 {
		t.Fatalf("NMI = %g", s.NMI)
	}
	if s.DetectedCommunities != 3 || s.TruthCommunities != 3 {
		t.Fatalf("counts: %+v", s)
	}
}

func TestCompareMergedCommunities(t *testing.T) {
	// Detection merged the two truth communities: recall stays 1 (each
	// truth community is fully inside a detected one), precision drops.
	truth := []int64{0, 0, 1, 1}
	detected := []int64{0, 0, 0, 0}
	s, err := Compare(detected, truth)
	if err != nil {
		t.Fatal(err)
	}
	if s.Recall != 1 {
		t.Fatalf("recall = %g, want 1", s.Recall)
	}
	if s.Precision != 0.5 {
		t.Fatalf("precision = %g, want 0.5", s.Precision)
	}
	wantF := 2 * 0.5 * 1 / 1.5
	if math.Abs(s.FScore-wantF) > 1e-12 {
		t.Fatalf("F = %g, want %g", s.FScore, wantF)
	}
}

func TestCompareSplitCommunities(t *testing.T) {
	// Detection split one truth community: precision 1, recall drops.
	truth := []int64{0, 0, 0, 0}
	detected := []int64{0, 0, 1, 1}
	s, err := Compare(detected, truth)
	if err != nil {
		t.Fatal(err)
	}
	if s.Precision != 1 {
		t.Fatalf("precision = %g, want 1", s.Precision)
	}
	if s.Recall != 0.5 {
		t.Fatalf("recall = %g, want 0.5", s.Recall)
	}
}

func TestCompareErrors(t *testing.T) {
	if _, err := Compare([]int64{1}, []int64{1, 2}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := Compare(nil, nil); err == nil {
		t.Fatal("expected empty error")
	}
}

func TestCompareSingleCommunityBoth(t *testing.T) {
	s, err := Compare([]int64{3, 3, 3}, []int64{8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if s.Precision != 1 || s.Recall != 1 || s.NMI != 1 {
		t.Fatalf("%+v", s)
	}
}

func TestNMISymmetricRange(t *testing.T) {
	truth := []int64{0, 0, 1, 1, 2, 2, 0, 1}
	detected := []int64{0, 1, 1, 0, 2, 2, 0, 1}
	a, err := Compare(detected, truth)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compare(truth, detected)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.NMI-b.NMI) > 1e-12 {
		t.Fatalf("NMI not symmetric: %g vs %g", a.NMI, b.NMI)
	}
	if a.NMI < 0 || a.NMI > 1 {
		t.Fatalf("NMI out of range: %g", a.NMI)
	}
}

// Property: scores are within [0,1], F is the harmonic mean, and comparing
// an assignment to itself is perfect.
func TestQuickCompareBounds(t *testing.T) {
	f := func(labels []uint8) bool {
		if len(labels) == 0 {
			return true
		}
		detected := make([]int64, len(labels))
		truth := make([]int64, len(labels))
		for i, l := range labels {
			detected[i] = int64(l % 7)
			truth[i] = int64((l / 7) % 5)
		}
		s, err := Compare(detected, truth)
		if err != nil {
			return false
		}
		if s.Precision < 0 || s.Precision > 1 || s.Recall < 0 || s.Recall > 1 {
			return false
		}
		if s.FScore > 0 {
			want := 2 * s.Precision * s.Recall / (s.Precision + s.Recall)
			if math.Abs(s.FScore-want) > 1e-12 {
				return false
			}
		}
		if s.NMI < -1e-12 || s.NMI > 1+1e-12 {
			return false
		}
		self, err := Compare(detected, detected)
		if err != nil {
			return false
		}
		return self.Precision == 1 && self.Recall == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestARI(t *testing.T) {
	// Identical partitions → ARI 1.
	a := []int64{0, 0, 1, 1, 2, 2}
	s, err := Compare(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.ARI-1) > 1e-12 {
		t.Fatalf("self-ARI = %g", s.ARI)
	}
	// Label permutation → still 1.
	b := []int64{9, 9, 7, 7, 5, 5}
	s, err = Compare(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.ARI-1) > 1e-12 {
		t.Fatalf("permuted ARI = %g", s.ARI)
	}
	// Completely split detection vs one truth community: ARI 0 (chance).
	split := []int64{0, 1, 2, 3}
	one := []int64{5, 5, 5, 5}
	s, err = Compare(split, one)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.ARI) > 1e-12 {
		t.Fatalf("split-vs-one ARI = %g", s.ARI)
	}
	// Bounded above by 1 and symmetric for a partial match.
	x := []int64{0, 0, 1, 1, 2, 2, 0, 1}
	y := []int64{0, 1, 1, 0, 2, 2, 0, 1}
	sxy, _ := Compare(x, y)
	syx, _ := Compare(y, x)
	if math.Abs(sxy.ARI-syx.ARI) > 1e-12 {
		t.Fatalf("ARI not symmetric: %g vs %g", sxy.ARI, syx.ARI)
	}
	if sxy.ARI > 1 || sxy.ARI < -1 {
		t.Fatalf("ARI out of range: %g", sxy.ARI)
	}
}
