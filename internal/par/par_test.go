package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1001} {
		for _, w := range []int{1, 2, 3, 8, 200} {
			counts := make([]int32, n)
			For(n, w, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, c)
				}
			}
		}
	}
}

func TestForWorkerIDsDistinct(t *testing.T) {
	const n, w = 100, 4
	seen := make([]int32, w)
	For(n, w, func(worker, lo, hi int) {
		atomic.AddInt32(&seen[worker], 1)
	})
	total := int32(0)
	for _, s := range seen {
		total += s
	}
	if total == 0 {
		t.Fatal("no worker ran")
	}
}

func TestReduceInt64(t *testing.T) {
	got := ReduceInt64(100, 7, func(_, lo, hi int) int64 {
		return int64(hi - lo)
	})
	if got != 100 {
		t.Fatalf("got %d", got)
	}
	if ReduceInt64(0, 4, func(_, _, _ int) int64 { return 99 }) != 0 {
		t.Fatal("empty range should reduce to 0")
	}
}

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := NewSplitMix64(42), NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed streams diverged")
		}
	}
	c := NewSplitMix64(43)
	same := 0
	a = NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal values", same)
	}
}

func TestMix64NotIdentity(t *testing.T) {
	if Mix64(0) == 0 || Mix64(1) == 1 {
		t.Fatal("Mix64 looks like identity")
	}
	if Mix64(7) != Mix64(7) {
		t.Fatal("Mix64 not deterministic")
	}
}

func TestXoshiroFloat64Range(t *testing.T) {
	g := NewXoshiro256(1)
	for i := 0; i < 10000; i++ {
		f := g.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestXoshiroFloat64Uniformish(t *testing.T) {
	g := NewXoshiro256(7)
	const n = 100000
	var buckets [10]int
	for i := 0; i < n; i++ {
		buckets[int(g.Float64()*10)]++
	}
	for b, c := range buckets {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Fatalf("bucket %d has %d of %d draws", b, c, n)
		}
	}
}

func TestXoshiroIntn(t *testing.T) {
	g := NewXoshiro256(3)
	for i := 0; i < 1000; i++ {
		v := g.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		v64 := g.Int63n(1 << 40)
		if v64 < 0 || v64 >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v64)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	g.Intn(0)
}

// Property: For with any worker count computes the same reduction as serial.
func TestQuickForMatchesSerial(t *testing.T) {
	f := func(n uint16, w uint8) bool {
		nn := int(n % 2000)
		ww := int(w%16) + 1
		var serial int64
		for i := 0; i < nn; i++ {
			serial += int64(i * i)
		}
		got := ReduceInt64(nn, ww, func(_, lo, hi int) int64 {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i * i)
			}
			return s
		})
		return got == serial
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
