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
		lo, hi := pt.Range(r)
		if v < lo || v >= hi {
			t.Fatalf("v=%d outside range [%d,%d) of owner %d", v, lo, hi, r)
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

// Property: the partitioner covers [0,n) exactly once, and Owner agrees
// with the ranges, for arbitrary sizes.
func TestQuickPartitionCoverage(t *testing.T) {
	f := func(nRaw uint16, pRaw uint8) bool {
		n := int64(nRaw % 500)
		p := int(pRaw%16) + 1
		pt := ByVertexCount(n, p)
		if pt.Validate() != nil || pt.N() != n || pt.Size() != p {
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
			if lo, hi := pt.Range(pt.Owner(v)); v < lo || v >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
