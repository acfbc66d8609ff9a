// Package flat provides the flat open-addressing tables the Louvain driver
// uses in place of Go maps where a key space is too sparse to address
// directly: Index, which numbers the communities a rank references but holds
// no vertex of (core) and the ghost vertices its arcs name (dgraph). (The ΔQ
// inner loop and the per-iteration community-delta batch used Table, and the
// coarsening step PairTable, until communities got dense per-phase slots; all
// three now accumulate into slot-addressed arrays — DESIGN §12 — and Table and
// PairTable remain for what benchmark/ times.) The design
// follows the hashing-kernel idea of Forster's GPU Louvain (linear-probed
// power-of-two tables, no chaining) adapted to per-worker CPU use:
//
//   - Reset is O(1): every slot carries an epoch stamp, and a table is
//     emptied by bumping the table's epoch counter instead of clearing the
//     arrays. A slot is live only when its stamp equals the current epoch.
//     The stamp arrays are cleared for real only when the 32-bit epoch
//     wraps (once per ~4G resets).
//   - Iteration is over an explicit slot list in insertion order, so a
//     consumer observes its keys in a deterministic order — unlike Go map
//     ranging, which is randomized per run. Determinism of every float sum
//     downstream is what makes the distributed trajectory reproducible bit
//     for bit.
//   - Tables are meant to be per-worker and phase-lived: allocate once,
//     Reset per use, grow on demand. None of the methods are safe for
//     concurrent use of one table; distinct workers use distinct tables.
package flat

// maxLoadNum/maxLoadDen give the 0.75 load factor above which a table
// doubles. Linear probing degrades sharply past ~0.8.
const (
	maxLoadNum = 3
	maxLoadDen = 4
	minCap     = 16
)

// mix64 is the splitmix64 finalizer, the same integer mixer the ET coin
// flips use; it scrambles community IDs (which are dense and correlated)
// into uniform probe starts.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ceilPow2 returns the smallest power of two ≥ n (and ≥ minCap).
func ceilPow2(n int) int {
	c := minCap
	for c < n {
		c <<= 1
	}
	return c
}

// Table accumulates a float64 sum per int64 key.
type Table struct {
	keys  []int64
	vals  []float64
	stamp []uint32
	slots []int32 // live slot indices in insertion order
	epoch uint32
	mask  uint64
}

// NewTable returns a table with capacity for about capHint live keys
// before the first growth.
func NewTable(capHint int) *Table {
	c := ceilPow2(capHint * maxLoadDen / maxLoadNum)
	return &Table{
		keys:  make([]int64, c),
		vals:  make([]float64, c),
		stamp: make([]uint32, c),
		slots: make([]int32, 0, capHint),
		epoch: 1,
		mask:  uint64(c - 1),
	}
}

// Reset empties the table in O(1) by advancing the epoch.
func (t *Table) Reset() {
	t.slots = t.slots[:0]
	t.epoch++
	if t.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(t.stamp)
		t.epoch = 1
	}
}

// Len returns the number of live keys.
func (t *Table) Len() int { return len(t.slots) }

// slot returns the index of key's slot, claiming a fresh one (zeroed, added
// to the iteration list) when the key is absent this epoch.
func (t *Table) slot(key int64) int32 {
	i := mix64(uint64(key)) & t.mask
	for {
		if t.stamp[i] != t.epoch {
			t.stamp[i] = t.epoch
			t.keys[i] = key
			t.vals[i] = 0
			t.slots = append(t.slots, int32(i))
			if len(t.slots)*maxLoadDen > len(t.keys)*maxLoadNum {
				t.grow()
				return t.find(key)
			}
			return int32(i)
		}
		if t.keys[i] == key {
			return int32(i)
		}
		i = (i + 1) & t.mask
	}
}

// find locates an existing live key (it must be present).
func (t *Table) find(key int64) int32 {
	i := mix64(uint64(key)) & t.mask
	for {
		if t.stamp[i] == t.epoch && t.keys[i] == key {
			return int32(i)
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the arrays and re-inserts live entries in insertion order,
// preserving the deterministic iteration sequence.
func (t *Table) grow() {
	old := *t
	c := len(old.keys) * 2
	t.keys = make([]int64, c)
	t.vals = make([]float64, c)
	t.stamp = make([]uint32, c)
	t.slots = make([]int32, 0, len(old.slots)*2)
	t.mask = uint64(c - 1)
	t.epoch = 1
	for _, s := range old.slots {
		key := old.keys[s]
		i := mix64(uint64(key)) & t.mask
		for t.stamp[i] == t.epoch {
			i = (i + 1) & t.mask
		}
		t.stamp[i] = t.epoch
		t.keys[i] = key
		t.vals[i] = old.vals[s]
		t.slots = append(t.slots, int32(i))
	}
}

// Add accumulates w into key's sum.
func (t *Table) Add(key int64, w float64) {
	s := t.slot(key)
	t.vals[s] += w
}

// Get returns key's sum, or (0, false) when the key is absent.
func (t *Table) Get(key int64) (float64, bool) {
	i := mix64(uint64(key)) & t.mask
	for {
		if t.stamp[i] != t.epoch {
			return 0, false
		}
		if t.keys[i] == key {
			return t.vals[i], true
		}
		i = (i + 1) & t.mask
	}
}

// At returns the i-th live (key, sum) in insertion order, 0 ≤ i < Len().
func (t *Table) At(i int) (int64, float64) {
	s := t.slots[i]
	return t.keys[s], t.vals[s]
}

// PairTable accumulates a float64 sum per (a, b) int64 key pair. It was the
// coarse-arc aggregator of the rebuild step until core.coarseArcs grouped the
// arcs by source community (PR 19) and has no caller in the program any more:
// it stays, untouched, because benchmark/micro.go times NewPairTable and Add
// as flat.pair_add_ns and only a benchmark PR may change that (ROADMAP).
type PairTable struct {
	ka    []int64
	kb    []int64
	vals  []float64
	stamp []uint32
	slots []int32
	epoch uint32
	mask  uint64
}

// NewPairTable returns a pair table with capacity for about capHint live
// pairs before the first growth.
func NewPairTable(capHint int) *PairTable {
	c := ceilPow2(capHint * maxLoadDen / maxLoadNum)
	return &PairTable{
		ka:    make([]int64, c),
		kb:    make([]int64, c),
		vals:  make([]float64, c),
		stamp: make([]uint32, c),
		slots: make([]int32, 0, capHint),
		epoch: 1,
		mask:  uint64(c - 1),
	}
}

// Reset empties the table in O(1) by advancing the epoch.
func (t *PairTable) Reset() {
	t.slots = t.slots[:0]
	t.epoch++
	if t.epoch == 0 {
		clear(t.stamp)
		t.epoch = 1
	}
}

// Len returns the number of live pairs.
func (t *PairTable) Len() int { return len(t.slots) }

func pairHash(a, b int64) uint64 {
	return mix64(uint64(a)*0x9e3779b97f4a7c15 ^ mix64(uint64(b)))
}

// Add accumulates w into (a, b)'s sum.
func (t *PairTable) Add(a, b int64, w float64) {
	i := pairHash(a, b) & t.mask
	for {
		if t.stamp[i] != t.epoch {
			t.stamp[i] = t.epoch
			t.ka[i] = a
			t.kb[i] = b
			t.vals[i] = w
			t.slots = append(t.slots, int32(i))
			if len(t.slots)*maxLoadDen > len(t.ka)*maxLoadNum {
				t.grow()
			}
			return
		}
		if t.ka[i] == a && t.kb[i] == b {
			t.vals[i] += w
			return
		}
		i = (i + 1) & t.mask
	}
}

// Get returns (a, b)'s sum, or (0, false) when the pair is absent.
func (t *PairTable) Get(a, b int64) (float64, bool) {
	i := pairHash(a, b) & t.mask
	for {
		if t.stamp[i] != t.epoch {
			return 0, false
		}
		if t.ka[i] == a && t.kb[i] == b {
			return t.vals[i], true
		}
		i = (i + 1) & t.mask
	}
}

// At returns the i-th live (a, b, sum) in insertion order, 0 ≤ i < Len().
func (t *PairTable) At(i int) (int64, int64, float64) {
	s := t.slots[i]
	return t.ka[s], t.kb[s], t.vals[s]
}

func (t *PairTable) grow() {
	old := *t
	c := len(old.ka) * 2
	t.ka = make([]int64, c)
	t.kb = make([]int64, c)
	t.vals = make([]float64, c)
	t.stamp = make([]uint32, c)
	t.slots = make([]int32, 0, len(old.slots)*2)
	t.mask = uint64(c - 1)
	t.epoch = 1
	for _, s := range old.slots {
		a, b := old.ka[s], old.kb[s]
		i := pairHash(a, b) & t.mask
		for t.stamp[i] == t.epoch {
			i = (i + 1) & t.mask
		}
		t.stamp[i] = t.epoch
		t.ka[i] = a
		t.kb[i] = b
		t.vals[i] = old.vals[s]
		t.slots = append(t.slots, int32(i))
	}
}

// Index numbers distinct int64 keys 0, 1, 2, … in the order they are first
// interned, and finds a key's number again: an append-only key ↔ dense-int
// dictionary. The zero value is an empty index.
type Index struct {
	keys []int64 // by number
	tab  []int32 // open-addressed: number+1 of the key hashed here, 0 when free
	mask uint64
}

// Len returns how many keys have been interned.
func (x *Index) Len() int { return len(x.keys) }

// Reset empties the index and keeps its memory for the keys to come.
func (x *Index) Reset() {
	x.keys = x.keys[:0]
	clear(x.tab)
}

// Key returns the key numbered i, 0 ≤ i < Len().
func (x *Index) Key(i int) int64 { return x.keys[i] }

// Find returns key's number, or (0, false) when it was never interned.
func (x *Index) Find(key int64) (int, bool) {
	if len(x.tab) == 0 {
		return 0, false
	}
	for i := mix64(uint64(key)) & x.mask; ; i = (i + 1) & x.mask {
		n := x.tab[i]
		if n == 0 {
			return 0, false
		}
		if x.keys[n-1] == key {
			return int(n - 1), true
		}
	}
}

// Intern returns key's number, assigning the next one when key is new.
func (x *Index) Intern(key int64) int {
	if n, ok := x.Find(key); ok {
		return n
	}
	if (len(x.keys)+1)*maxLoadDen > len(x.tab)*maxLoadNum {
		x.tab = make([]int32, ceilPow2(2*len(x.tab)))
		x.mask = uint64(len(x.tab) - 1)
		for n, k := range x.keys {
			x.place(k, int32(n+1))
		}
	}
	x.keys = append(x.keys, key)
	x.place(key, int32(len(x.keys)))
	return len(x.keys) - 1
}

// place stores n at the first free probe position of key.
func (x *Index) place(key int64, n int32) {
	i := mix64(uint64(key)) & x.mask
	for x.tab[i] != 0 {
		i = (i + 1) & x.mask
	}
	x.tab[i] = n
}
