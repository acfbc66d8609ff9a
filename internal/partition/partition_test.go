package partition

import (
	"testing"
	"testing/quick"
)

func TestByVertexCountEven(t *testing.T) {
	pt := ByVertexCount(10, 3)
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	if pt.Size() != 3 || pt.N() != 10 {
		t.Fatalf("size=%d n=%d", pt.Size(), pt.N())
	}
	counts := []int64{pt.Count(0), pt.Count(1), pt.Count(2)}
	if counts[0] != 4 || counts[1] != 3 || counts[2] != 3 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestByVertexCountMoreRanksThanVertices(t *testing.T) {
	pt := ByVertexCount(2, 5)
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for r := 0; r < 5; r++ {
		total += pt.Count(r)
	}
	if total != 2 {
		t.Fatalf("total = %d", total)
	}
}

func TestOwnerAndLocality(t *testing.T) {
	pt := ByVertexCount(100, 7)
	for v := int64(0); v < 100; v++ {
		r := pt.Owner(v)
		if !pt.Owns(r, v) {
			t.Fatalf("owner(%d)=%d but Owns is false", v, r)
		}
		lo, hi := pt.Range(r)
		if v < lo || v >= hi {
			t.Fatalf("v=%d outside range [%d,%d) of owner %d", v, lo, hi, r)
		}
		if lv := pt.ToLocal(r, v); lv != v-lo {
			t.Fatalf("ToLocal(%d, %d) = %d, want %d", r, v, lv, v-lo)
		}
	}
}

func TestOwnerPanicsOutOfRange(t *testing.T) {
	pt := ByVertexCount(10, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pt.Owner(10)
}

func TestByEdgeCountBalances(t *testing.T) {
	// One heavy vertex at the front: it should get its own range.
	degrees := make([]int64, 10)
	degrees[0] = 90
	for i := 1; i < 10; i++ {
		degrees[i] = 10
	}
	pt := ByEdgeCount(degrees, 2)
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	if pt.N() != 10 {
		t.Fatalf("N = %d", pt.N())
	}
	// Rank 0 should own just vertex 0 (90 slots ≈ half of 180).
	if pt.Count(0) != 1 {
		t.Fatalf("rank 0 owns %d vertices, want 1 (bounds %v)", pt.Count(0), pt.Bounds)
	}
}

func TestByEdgeCountZeroDegrees(t *testing.T) {
	pt := ByEdgeCount(make([]int64, 12), 4)
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	if pt.N() != 12 {
		t.Fatalf("N = %d", pt.N())
	}
	var total int64
	for r := 0; r < 4; r++ {
		total += pt.Count(r)
	}
	if total != 12 {
		t.Fatalf("total = %d", total)
	}
}

func TestValidateCatchesBrokenBounds(t *testing.T) {
	bad := &Partition{Bounds: []int64{0, 5, 3, 10}}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected monotonicity error")
	}
	bad = &Partition{Bounds: []int64{1, 5}}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected bounds[0] error")
	}
	bad = &Partition{Bounds: []int64{0}}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected too-few-bounds error")
	}
}

// Property: both partitioners cover [0,n) exactly once, and Owner agrees
// with the ranges, for arbitrary sizes.
func TestQuickPartitionCoverage(t *testing.T) {
	f := func(nRaw uint16, pRaw uint8, degSeed int64) bool {
		n := int64(nRaw % 500)
		p := int(pRaw%16) + 1
		degrees := make([]int64, n)
		s := degSeed
		for i := range degrees {
			s = s*6364136223846793005 + 1442695040888963407
			degrees[i] = (s >> 33) % 20
			if degrees[i] < 0 {
				degrees[i] = -degrees[i]
			}
		}
		for _, pt := range []*Partition{ByVertexCount(n, p), ByEdgeCount(degrees, p)} {
			if pt.Validate() != nil {
				return false
			}
			if pt.N() != n || pt.Size() != p {
				return false
			}
			var total int64
			for r := 0; r < p; r++ {
				total += pt.Count(r)
			}
			if total != n {
				return false
			}
			step := n/97 + 1
			for v := int64(0); v < n; v += step {
				if !pt.Owns(pt.Owner(v), v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: edge-balanced partitioning is never worse than 2x the ideal
// per-rank load plus the heaviest single vertex (contiguity bound).
func TestQuickEdgeBalanceQuality(t *testing.T) {
	f := func(pRaw uint8, seed int64) bool {
		p := int(pRaw%8) + 1
		n := int64(200)
		degrees := make([]int64, n)
		var total, maxDeg int64
		s := seed
		for i := range degrees {
			s = s*2862933555777941757 + 3037000493
			degrees[i] = (s >> 40) & 63
			total += degrees[i]
			if degrees[i] > maxDeg {
				maxDeg = degrees[i]
			}
		}
		pt := ByEdgeCount(degrees, p)
		ideal := total / int64(p)
		for r := 0; r < p; r++ {
			lo, hi := pt.Range(r)
			var load int64
			for v := lo; v < hi; v++ {
				load += degrees[v]
			}
			if load > ideal+maxDeg+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
