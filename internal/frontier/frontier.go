// Package frontier implements the ligra-style active-vertex set driving the
// core sweep kernels: a set of local vertex indices with automatic
// dense/sparse representation switching. While the set is small it keeps an
// explicit id list (sparse direction: the sweep iterates exactly the marked
// vertices, sorted ascending); once the population crosses a configurable
// fraction of the universe the list is abandoned and the set degrades to its
// bitmap (dense direction: the sweep scans every vertex and tests
// membership). Membership is always tracked in the bitmap, so Mark is O(1)
// and duplicate marks are free under both representations.
//
// The zero direction choice never affects WHAT is in the set — only how it
// is iterated — which is what lets the core package prove frontier-driven
// sweeps bit-identical to full scans regardless of representation.
package frontier

import (
	"math/bits"
	"slices"
)

// Rep forces a representation, or lets the set switch automatically.
type Rep int

const (
	// RepAuto switches from the sparse id list to the dense bitmap when the
	// population exceeds the sparse fraction of the universe.
	RepAuto Rep = iota
	// RepDense never keeps an id list; iteration always scans the bitmap.
	RepDense
	// RepSparse always keeps the id list, whatever the population.
	RepSparse
)

// DefaultSparseFraction is the population fraction (of the universe) above
// which RepAuto abandons the id list: past this density a bitmap scan is
// cheaper than sorting and chasing an id list.
const DefaultSparseFraction = 0.25

// Set is a set of vertex ids in [0, n). Not safe for concurrent mutation;
// Has is safe to call from parallel readers while no writer runs.
type Set struct {
	n      int64
	limit  int64 // max ids the sparse list may hold; 0 forces dense
	words  []uint64
	ids    []int64 // complete population while listOK (unsorted)
	count  int64
	listOK bool
	sorted bool
}

// New returns an empty set over the universe [0, n). sparseFrac is the
// RepAuto switch point as a fraction of n (≤0 selects
// DefaultSparseFraction); RepDense and RepSparse ignore it.
func New(n int64, rep Rep, sparseFrac float64) *Set {
	s := &Set{}
	s.Reset(n, rep, sparseFrac)
	return s
}

// Reset makes s the empty set New(n, rep, sparseFrac) returns, keeping its
// memory where it is large enough: a run's later, smaller phases reuse the
// first phase's sets.
func (s *Set) Reset(n int64, rep Rep, sparseFrac float64) {
	if n < 0 {
		n = 0
	}
	if sparseFrac <= 0 {
		sparseFrac = DefaultSparseFraction
	}
	s.n = n
	if words := int((n + 63) / 64); cap(s.words) >= words {
		s.words = s.words[:words]
	} else {
		s.words = make([]uint64, words)
	}
	switch rep {
	case RepDense:
		s.limit = 0
	case RepSparse:
		s.limit = n
	default:
		s.limit = int64(sparseFrac * float64(n))
	}
	if cap(s.ids) < int(s.limit) {
		s.ids = make([]int64, 0, s.limit) // the most the list holds before it is abandoned
	}
	s.Clear()
}

// N returns the universe size.
func (s *Set) N() int64 { return s.n }

// Len returns the population.
func (s *Set) Len() int64 { return s.count }

// Has reports membership of v.
func (s *Set) Has(v int64) bool {
	return s.words[v>>6]&(1<<uint(v&63)) != 0
}

// Dense reports whether iteration must scan the bitmap (the id list is
// unavailable: abandoned past the switch point, or never kept).
func (s *Set) Dense() bool { return !s.listOK }

// Mark adds v to the set. Marking a member again is a no-op.
func (s *Set) Mark(v int64) {
	w, bit := v>>6, uint64(1)<<uint(v&63)
	if s.words[w]&bit != 0 {
		return
	}
	s.words[w] |= bit
	s.count++
	if s.listOK {
		if s.count <= s.limit {
			s.ids = append(s.ids, v)
			s.sorted = false
		} else {
			// Crossed the switch point: drop to the dense direction. The
			// bitmap already holds the full population.
			s.listOK = false
			s.ids = s.ids[:0]
		}
	}
}

// Clear empties the set.
func (s *Set) Clear() {
	clear(s.words)
	s.ids = s.ids[:0]
	s.count = 0
	s.listOK = s.limit > 0
	s.sorted = true
}

// Fill populates the set with the entire universe (the phase-start seed).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if tail := s.n & 63; tail != 0 {
		s.words[len(s.words)-1] = (1 << uint(tail)) - 1
	}
	s.count = s.n
	s.ids = s.ids[:0]
	s.sorted = true
	s.listOK = s.limit >= s.n && s.n > 0
	if s.listOK {
		for v := int64(0); v < s.n; v++ {
			s.ids = append(s.ids, v)
		}
	}
}

// Sorted returns the population in ascending order. Valid only while the
// sparse list is live (!Dense()); the slice aliases internal storage and is
// invalidated by the next mutation.
func (s *Set) Sorted() []int64 {
	if !s.sorted {
		slices.Sort(s.ids)
		s.sorted = true
	}
	return s.ids
}

// Each calls fn once per member, in no particular order, without sorting or
// copying the population. fn must not mutate the set.
func (s *Set) Each(fn func(v int64)) {
	if s.listOK {
		for _, v := range s.ids {
			fn(v)
		}
		return
	}
	for wi, w := range s.words {
		base := int64(wi) << 6
		for ; w != 0; w &= w - 1 {
			fn(base + int64(bits.TrailingZeros64(w)))
		}
	}
}

// NextAbsent returns the least non-member ≥ v, or N() when there is none. A
// word whose 64 ids are all members is passed over in one step, so walking the
// complement of a nearly full set costs about one load per 64 ids.
func (s *Set) NextAbsent(v int64) int64 {
	if v >= s.n {
		return s.n
	}
	wi := v >> 6
	w := ^s.words[wi] &^ (1<<uint(v&63) - 1)
	for w == 0 {
		if wi++; wi == int64(len(s.words)) {
			return s.n
		}
		w = ^s.words[wi]
	}
	return min(wi<<6+int64(bits.TrailingZeros64(w)), s.n)
}

// AppendAscending appends the population in ascending order to dst and
// returns it. Unlike Sorted it works under both representations (bitmap
// scan when dense), so oracles and diagnostics can enumerate any set.
func (s *Set) AppendAscending(dst []int64) []int64 {
	if s.listOK {
		return append(dst, s.Sorted()...)
	}
	for wi, w := range s.words {
		base := int64(wi) << 6
		for w != 0 {
			dst = append(dst, base+int64(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}
