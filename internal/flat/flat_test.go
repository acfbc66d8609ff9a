package flat

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"distlouvain/internal/par"
)

func TestTableBasic(t *testing.T) {
	tab := NewTable(4)
	if tab.Len() != 0 {
		t.Fatalf("new table has %d entries", tab.Len())
	}
	tab.Add(7, 1.5)
	tab.Add(-3, 2.0)
	tab.Add(7, 0.25)
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	if v, ok := tab.Get(7); !ok || v != 1.75 {
		t.Fatalf("Get(7) = %v, %v", v, ok)
	}
	if v, ok := tab.Get(-3); !ok || v != 2.0 {
		t.Fatalf("Get(-3) = %v, %v", v, ok)
	}
	if _, ok := tab.Get(0); ok {
		t.Fatal("Get(0) found a key never inserted")
	}
	// Insertion order iteration.
	k0, v0 := tab.At(0)
	k1, v1 := tab.At(1)
	if k0 != 7 || v0 != 1.75 || k1 != -3 || v1 != 2.0 {
		t.Fatalf("At order = (%d,%v), (%d,%v)", k0, v0, k1, v1)
	}
}

func TestTableEpochReset(t *testing.T) {
	tab := NewTable(4)
	for round := 0; round < 1000; round++ {
		tab.Reset()
		if tab.Len() != 0 {
			t.Fatalf("round %d: Len %d after Reset", round, tab.Len())
		}
		if _, ok := tab.Get(int64(round)); ok {
			t.Fatalf("round %d: stale key visible after Reset", round)
		}
		tab.Add(int64(round), float64(round))
		if v, ok := tab.Get(int64(round)); !ok || v != float64(round) {
			t.Fatalf("round %d: Get = %v, %v", round, v, ok)
		}
	}
}

func TestTableEpochWrap(t *testing.T) {
	tab := NewTable(4)
	tab.Add(42, 1)
	tab.epoch = math.MaxUint32 // force the wrap path on the next Reset
	tab.Reset()
	if tab.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", tab.epoch)
	}
	if _, ok := tab.Get(42); ok {
		t.Fatal("stale key visible after epoch wrap")
	}
	tab.Add(9, 3)
	if v, ok := tab.Get(9); !ok || v != 3 {
		t.Fatalf("Get(9) after wrap = %v, %v", v, ok)
	}
}

func TestTableGrowthPreservesOrder(t *testing.T) {
	tab := NewTable(2)
	const n = 10000
	for i := 0; i < n; i++ {
		tab.AddDelta(int64(i*7), float64(i), int64(-i))
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	for i := 0; i < n; i++ {
		k, v, a := tab.AtDelta(i)
		if k != int64(i*7) || v != float64(i) || a != int64(-i) {
			t.Fatalf("entry %d = (%d, %v, %d)", i, k, v, a)
		}
	}
}

func TestPairTableBasic(t *testing.T) {
	tab := NewPairTable(4)
	tab.Add(1, 2, 0.5)
	tab.Add(2, 1, 1.0) // distinct pair: order matters
	tab.Add(1, 2, 0.5)
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	if v, ok := tab.Get(1, 2); !ok || v != 1.0 {
		t.Fatalf("Get(1,2) = %v, %v", v, ok)
	}
	if v, ok := tab.Get(2, 1); !ok || v != 1.0 {
		t.Fatalf("Get(2,1) = %v, %v", v, ok)
	}
	if _, ok := tab.Get(2, 2); ok {
		t.Fatal("Get(2,2) found a pair never inserted")
	}
	a, b, v := tab.At(0)
	if a != 1 || b != 2 || v != 1.0 {
		t.Fatalf("At(0) = (%d,%d,%v)", a, b, v)
	}
}

func TestPairTableGrowthAndReset(t *testing.T) {
	tab := NewPairTable(2)
	const n = 3000
	for i := 0; i < n; i++ {
		tab.Add(int64(i%97), int64(i), 1)
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatal("Reset left entries")
	}
	if _, ok := tab.Get(0, 0); ok {
		t.Fatal("stale pair visible after Reset")
	}
	tab.Add(5, 6, 2)
	if v, ok := tab.Get(5, 6); !ok || v != 2 {
		t.Fatalf("Get(5,6) = %v, %v", v, ok)
	}
}

// TestPerWorkerTablesUnderRace exercises one table per worker concurrently
// under par.For, the exact usage pattern of the sweep kernel. Run with
// -race: distinct tables must share no state.
func TestPerWorkerTablesUnderRace(t *testing.T) {
	const nw = 8
	tabs := make([]*Table, nw)
	for w := range tabs {
		tabs[w] = NewTable(16)
	}
	sums := make([]float64, nw)
	par.For(100000, nw, func(w, lo, hi int) {
		tab := tabs[w]
		for i := lo; i < hi; i++ {
			if i%64 == 0 {
				tab.Reset()
			}
			tab.Add(int64(i%53), 1)
		}
		var s float64
		for i := 0; i < tab.Len(); i++ {
			_, v := tab.At(i)
			s += v
		}
		sums[w] = s
	})
	for w, s := range sums {
		if s <= 0 {
			t.Fatalf("worker %d accumulated nothing", w)
		}
	}
}

// FuzzFlatTable drives a random insert/accumulate/reset sequence against a
// map[int64]float64 oracle: after every operation the table and the oracle
// must agree on membership, per-key sums (bit-exact — both accumulate in
// the same order) and iteration content.
func FuzzFlatTable(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 0})
	f.Add([]byte{0xff, 0x00, 0x10, 0x80, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := NewTable(2)
		oracle := make(map[int64]float64)
		var order []int64 // oracle insertion order
		for len(data) >= 2 {
			op := data[0] % 8
			data = data[1:]
			var key int64
			if len(data) >= 8 {
				key = int64(binary.LittleEndian.Uint64(data[:8])) % 1024
				data = data[8:]
			} else {
				key = int64(data[0]) % 1024
				data = data[1:]
			}
			switch op {
			case 7: // reset (rare relative to inserts)
				tab.Reset()
				oracle = make(map[int64]float64)
				order = order[:0]
			default:
				w := float64(op) * 0.37
				if _, seen := oracle[key]; !seen {
					order = append(order, key)
				}
				tab.Add(key, w)
				oracle[key] += w
			}
			if tab.Len() != len(oracle) {
				t.Fatalf("Len = %d, oracle has %d", tab.Len(), len(oracle))
			}
			if v, ok := tab.Get(key); op != 7 && (!ok || v != oracle[key]) {
				t.Fatalf("Get(%d) = %v,%v want %v", key, v, ok, oracle[key])
			}
		}
		// Full-content check including insertion order.
		for i, k := range order {
			gk, gv := tab.At(i)
			if gk != k || gv != oracle[k] {
				t.Fatalf("entry %d = (%d,%v), oracle (%d,%v)", i, gk, gv, k, oracle[k])
			}
		}
	})
}

// FuzzPairTable is FuzzFlatTable for the (src,dst) coarse-arc aggregator.
func FuzzPairTable(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		type pair struct{ a, b int64 }
		tab := NewPairTable(2)
		oracle := make(map[pair]float64)
		for len(data) >= 3 {
			a, b := int64(data[0])%64, int64(data[1])%64
			w := float64(data[2]) * 0.25
			data = data[3:]
			tab.Add(a, b, w)
			oracle[pair{a, b}] += w
			if v, ok := tab.Get(a, b); !ok || v != oracle[pair{a, b}] {
				t.Fatalf("Get(%d,%d) = %v,%v want %v", a, b, v, ok, oracle[pair{a, b}])
			}
		}
		if tab.Len() != len(oracle) {
			t.Fatalf("Len = %d, oracle has %d", tab.Len(), len(oracle))
		}
		got := make(map[pair]float64, tab.Len())
		for i := 0; i < tab.Len(); i++ {
			a, b, v := tab.At(i)
			got[pair{a, b}] = v
		}
		keys := make([]pair, 0, len(oracle))
		for k := range oracle {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].a != keys[j].a {
				return keys[i].a < keys[j].a
			}
			return keys[i].b < keys[j].b
		})
		for _, k := range keys {
			if got[k] != oracle[k] {
				t.Fatalf("pair %v = %v, oracle %v", k, got[k], oracle[k])
			}
		}
	})
}

// TestIndexAgainstMap: keys get the numbers 0, 1, 2, … in first-interned
// order, re-interning is idempotent, Find misses what was never interned, and
// all of it survives growth — against a map oracle, with keys dense and
// correlated the way community IDs are, plus the negative and huge ones a
// corrupt frame could name.
func TestIndexAgainstMap(t *testing.T) {
	var x Index
	if _, ok := x.Find(7); ok || x.Len() != 0 {
		t.Fatal("empty index finds a key")
	}
	oracle := make(map[int64]int)
	keys := []int64{-7, 0, 1 << 62, -1 << 63}
	for i := int64(0); i < 5000; i++ {
		keys = append(keys, 1000+3*(i%1700)) // repeats from 1700 on
	}
	for _, k := range keys {
		want, seen := oracle[k]
		if !seen {
			want = len(oracle)
			oracle[k] = want
		}
		if _, ok := x.Find(k); ok != seen {
			t.Fatalf("Find(%d) before interning = %v, want %v", k, ok, seen)
		}
		if got := x.Intern(k); got != want {
			t.Fatalf("Intern(%d) = %d, want %d", k, got, want)
		}
	}
	if x.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle has %d", x.Len(), len(oracle))
	}
	for k, n := range oracle {
		if got, ok := x.Find(k); !ok || got != n || x.Key(n) != k {
			t.Fatalf("Find(%d) = %d,%v and Key(%d) = %d; want %d", k, got, ok, n, x.Key(n), n)
		}
	}
	if _, ok := x.Find(1001); ok {
		t.Fatal("Find hit a key that was never interned")
	}
}

// FuzzIndex holds Index to a map oracle over random sequences of Intern, Find
// and Reset. Each op takes one byte and then a key: with the byte's top bit
// set, one of 64 keys whose mix64 hashes agree in their low 10 bits, so every
// table up to 1024 slots probes them from one start; otherwise 8 raw bytes
// (any int64, negative and huge ones included) or, short of 8, one byte.
func FuzzIndex(f *testing.F) {
	var colliding []int64
	for k := int64(0); len(colliding) < 64; k++ {
		if mix64(uint64(k))&1023 == 0 {
			colliding = append(colliding, k)
		}
	}
	f.Add([]byte{0x82, 0x83, 0x84, 0x81, 0x82, 0x80, 0x81, 0x85, 0x83})
	f.Add([]byte{2, 1, 2, 2, 3, 0, 0, 5, 1, 7, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var x Index
		oracle := make(map[int64]int)
		var order []int64
		for len(data) >= 2 {
			op := data[0]
			var key int64
			switch {
			case op&0x80 != 0:
				key, data = colliding[int(data[1])%len(colliding)], data[2:]
			case len(data) >= 9:
				key, data = int64(binary.LittleEndian.Uint64(data[1:9])), data[9:]
			default:
				key, data = int64(data[1]), data[2:]
			}
			want, seen := oracle[key]
			switch op % 4 {
			case 0:
				x.Reset()
				clear(oracle)
				order = order[:0]
			case 1:
				if got, ok := x.Find(key); ok != seen || (ok && got != want) {
					t.Fatalf("Find(%d) = %d, %v; oracle %d, %v", key, got, ok, want, seen)
				}
			default:
				if !seen {
					want = len(order)
					oracle[key] = want
					order = append(order, key)
				}
				if got := x.Intern(key); got != want {
					t.Fatalf("Intern(%d) = %d, oracle %d", key, got, want)
				}
			}
			if x.Len() != len(order) {
				t.Fatalf("Len = %d, oracle has %d", x.Len(), len(order))
			}
		}
		for n, k := range order {
			if got, ok := x.Find(k); !ok || got != n || x.Key(n) != k {
				t.Fatalf("Find(%d) = %d, %v and Key(%d) = %d; oracle numbers it %d", k, got, ok, n, x.Key(n), n)
			}
		}
		for _, k := range colliding {
			if _, seen := oracle[k]; !seen {
				if _, ok := x.Find(k); ok {
					t.Fatalf("Find(%d) hit a key never interned since the last Reset", k)
				}
			}
		}
	})
}
