// Package partition holds only tests: the even split of a vertex range over
// ranks, which the closed-form gio.SegmentRange and its inverse
// gio.SegmentOwner compute, checked against a table of bounds and a binary
// search over them.
package partition

import (
	"sort"
	"testing"
	"testing/quick"

	"distlouvain/internal/gio"
)

// splitOracle is the even split as a table of bounds, the first n%p ranks
// one longer, and its owner lookup a binary search over them.
type splitOracle []int64

func byVertexCount(n int64, p int) splitOracle {
	bounds := make(splitOracle, p+1)
	per, rem := n/int64(p), n%int64(p)
	for r := 0; r < p; r++ {
		extra := int64(0)
		if int64(r) < rem {
			extra = 1
		}
		bounds[r+1] = bounds[r] + per + extra
	}
	return bounds
}

func (b splitOracle) owner(v int64) int {
	return sort.Search(len(b)-1, func(i int) bool { return b[i+1] > v })
}

// The grid every test walks: every n in [0, 300] and p in [1, 17], and n
// near 2³² and 2⁴⁰, where only the IDs at and next to every bound are tried.
var bigNs = []int64{1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<32 + 16, 1<<40 - 1, 1 << 40, 1<<40 + 5}

func eachSplit(f func(n int64, p int, ids func(lo, hi int64) []int64)) {
	every := func(lo, hi int64) []int64 {
		var out []int64
		for v := lo; v < hi; v++ {
			out = append(out, v)
		}
		return out
	}
	nearBounds := func(lo, hi int64) []int64 { return []int64{lo - 1, lo, lo + 1, hi - 2, hi - 1, hi} }
	for n := int64(0); n <= 300; n++ {
		for p := 1; p <= 17; p++ {
			f(n, p, every)
		}
	}
	for _, n := range bigNs {
		for p := 1; p <= 17; p++ {
			f(n, p, nearBounds)
		}
	}
}

// TestByVertexCountEven: 10 vertices over 3 ranks are 4, 3, 3, and
// SegmentRange gives the oracle's bounds for every split of the grid.
func TestByVertexCountEven(t *testing.T) {
	var counts []int64
	for r := 0; r < 3; r++ {
		lo, hi := gio.SegmentRange(10, r, 3)
		counts = append(counts, hi-lo)
	}
	if counts[0] != 4 || counts[1] != 3 || counts[2] != 3 {
		t.Fatalf("counts = %v", counts)
	}
	eachSplit(func(n int64, p int, _ func(lo, hi int64) []int64) {
		b := byVertexCount(n, p)
		for r := 0; r < p; r++ {
			if lo, hi := gio.SegmentRange(n, r, p); lo != b[r] || hi != b[r+1] {
				t.Fatalf("n=%d p=%d: rank %d holds [%d,%d), the oracle [%d,%d)", n, p, r, lo, hi, b[r], b[r+1])
			}
		}
	})
}

// TestByVertexCountMoreRanksThanVertices: with n < p the first n ranks own
// one vertex each, their own rank's, and the rest are empty ranges at n.
func TestByVertexCountMoreRanksThanVertices(t *testing.T) {
	for n := int64(0); n <= 16; n++ {
		for p := int(n) + 1; p <= 17; p++ {
			for r := 0; r < p; r++ {
				lo, hi := gio.SegmentRange(n, r, p)
				want := int64(0)
				if int64(r) < n {
					want = 1
				}
				if hi-lo != want || (want == 0 && lo != n) {
					t.Fatalf("n=%d p=%d: rank %d holds [%d,%d)", n, p, r, lo, hi)
				}
			}
			for v := int64(0); v < n; v++ {
				if got := gio.SegmentOwner(n, v, p); got != int(v) {
					t.Fatalf("n=%d p=%d: SegmentOwner(%d) = %d", n, p, v, got)
				}
			}
		}
	}
}

// TestOwnerAndLocality: SegmentOwner gives the oracle's owner of every ID
// the grid tries, and that ID lies in its owner's SegmentRange.
func TestOwnerAndLocality(t *testing.T) {
	eachSplit(func(n int64, p int, ids func(lo, hi int64) []int64) {
		b := byVertexCount(n, p)
		for r := 0; r < p; r++ {
			for _, v := range ids(gio.SegmentRange(n, r, p)) {
				if v < 0 || v >= n {
					continue
				}
				got := gio.SegmentOwner(n, v, p)
				if want := b.owner(v); got != want {
					t.Fatalf("n=%d p=%d: SegmentOwner(%d) = %d, the oracle %d", n, p, v, got, want)
				}
				if lo, hi := gio.SegmentRange(n, got, p); v < lo || v >= hi {
					t.Fatalf("n=%d p=%d: v=%d outside range [%d,%d) of owner %d", n, p, v, lo, hi, got)
				}
			}
		}
	})
}

// Property: the ranges cover [0,n) exactly once, in rank order, and
// SegmentOwner agrees with them, for arbitrary sizes.
func TestQuickPartitionCoverage(t *testing.T) {
	f := func(nRaw uint16, pRaw uint8) bool {
		n := int64(nRaw % 500)
		p := int(pRaw%16) + 1
		var next int64
		for r := 0; r < p; r++ {
			lo, hi := gio.SegmentRange(n, r, p)
			if lo != next || hi < lo {
				return false
			}
			next = hi
		}
		if next != n {
			return false
		}
		step := n/97 + 1
		for v := int64(0); v < n; v += step {
			if lo, hi := gio.SegmentRange(n, gio.SegmentOwner(n, v, p), p); v < lo || v >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
