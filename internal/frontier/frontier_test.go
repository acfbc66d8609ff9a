package frontier

import (
	"slices"
	"testing"
)

func TestSetBasics(t *testing.T) {
	s := New(100, RepAuto, 0.25) // limit 25
	if s.Len() != 0 || s.Dense() {
		t.Fatalf("empty set: len=%d dense=%v", s.Len(), s.Dense())
	}
	s.Mark(7)
	s.Mark(3)
	s.Mark(7) // duplicate
	if s.Len() != 2 {
		t.Fatalf("len=%d want 2", s.Len())
	}
	if !s.Has(7) || !s.Has(3) || s.Has(4) {
		t.Fatal("membership wrong")
	}
	if got := s.Sorted(); !slices.Equal(got, []int64{3, 7}) {
		t.Fatalf("sorted=%v", got)
	}
	s.Clear()
	if s.Len() != 0 || s.Has(7) || s.Dense() {
		t.Fatal("clear did not reset")
	}
}

func TestSetAutoSwitch(t *testing.T) {
	s := New(100, RepAuto, 0.25)
	for v := int64(0); v < 25; v++ {
		s.Mark(v * 2)
	}
	if s.Dense() {
		t.Fatal("switched before crossing limit")
	}
	s.Mark(51)
	if !s.Dense() {
		t.Fatal("did not switch past limit")
	}
	if s.Len() != 26 || !s.Has(51) || !s.Has(48) {
		t.Fatal("membership lost across switch")
	}
	want := make([]int64, 0, 26)
	for v := int64(0); v < 25; v++ {
		want = append(want, v*2)
	}
	want = append(want, 51)
	slices.Sort(want)
	if got := s.AppendAscending(nil); !slices.Equal(got, want) {
		t.Fatalf("dense enumeration=%v want %v", got, want)
	}
	s.Clear()
	if s.Dense() {
		t.Fatal("clear must restore the sparse list")
	}
}

func TestSetForcedReps(t *testing.T) {
	d := New(64, RepDense, 0.25)
	if !d.Dense() {
		t.Fatal("RepDense must never keep a list")
	}
	d.Mark(63)
	if !d.Has(63) || d.Len() != 1 {
		t.Fatal("dense mark failed")
	}

	sp := New(64, RepSparse, 0.01)
	for v := int64(0); v < 64; v++ {
		sp.Mark(v)
	}
	if sp.Dense() {
		t.Fatal("RepSparse must keep the list at any population")
	}
	if got := sp.Sorted(); int64(len(got)) != 64 {
		t.Fatalf("sparse full population len=%d", len(got))
	}
}

func TestSetFill(t *testing.T) {
	for _, n := range []int64{0, 1, 63, 64, 65, 200} {
		for _, rep := range []Rep{RepAuto, RepDense, RepSparse} {
			s := New(n, rep, 0.25)
			s.Fill()
			if s.Len() != n {
				t.Fatalf("n=%d rep=%d: fill len=%d", n, rep, s.Len())
			}
			for v := int64(0); v < n; v++ {
				if !s.Has(v) {
					t.Fatalf("n=%d rep=%d: missing %d after fill", n, rep, v)
				}
			}
			got := s.AppendAscending(nil)
			if int64(len(got)) != n {
				t.Fatalf("n=%d rep=%d: enumeration len=%d", n, rep, len(got))
			}
			for i, v := range got {
				if v != int64(i) {
					t.Fatalf("n=%d rep=%d: enumeration[%d]=%d", n, rep, i, v)
				}
			}
			// Fill then re-mark must not double count.
			if n > 0 {
				s.Mark(0)
				if s.Len() != n {
					t.Fatalf("n=%d rep=%d: re-mark changed len to %d", n, rep, s.Len())
				}
			}
		}
	}
}

func TestSetTailWordMasked(t *testing.T) {
	s := New(70, RepDense, 0)
	s.Fill()
	if s.Len() != 70 {
		t.Fatalf("len=%d", s.Len())
	}
	got := s.AppendAscending(nil)
	if len(got) != 70 || got[69] != 69 {
		t.Fatalf("tail bits leaked: %v", got[64:])
	}
}

// FuzzFrontierSet drives a Set through an op stream and checks every
// observable (membership, population, ascending enumeration, representation
// monotonicity between clears) against a map oracle.
func FuzzFrontierSet(f *testing.F) {
	f.Add(int64(100), uint8(0), []byte{0, 1, 0, 2, 0, 3, 2, 0})
	f.Add(int64(64), uint8(1), []byte{1, 0, 50, 0, 51})
	f.Add(int64(17), uint8(2), []byte{0, 200, 0, 201, 2, 1})
	f.Fuzz(func(t *testing.T, n int64, rep uint8, ops []byte) {
		if n < 0 || n > 4096 {
			t.Skip()
		}
		r := Rep(rep % 3)
		s := New(n, r, 0.25)
		oracle := make(map[int64]bool)
		wasDense := s.Dense()
		for i := 0; i+1 < len(ops); i += 2 {
			switch ops[i] % 4 {
			case 0: // mark
				if n == 0 {
					continue
				}
				v := int64(ops[i+1]) * 17 % n
				s.Mark(v)
				oracle[v] = true
			case 1: // fill
				s.Fill()
				for v := int64(0); v < n; v++ {
					oracle[v] = true
				}
				wasDense = s.Dense()
			case 2: // clear
				s.Clear()
				clear(oracle)
				wasDense = s.Dense()
			case 3: // probe
				if n == 0 {
					continue
				}
				v := int64(ops[i+1]) * 13 % n
				if s.Has(v) != oracle[v] {
					t.Fatalf("Has(%d)=%v oracle=%v", v, s.Has(v), oracle[v])
				}
			}
			if s.Len() != int64(len(oracle)) {
				t.Fatalf("len=%d oracle=%d", s.Len(), len(oracle))
			}
			// Representation can only move sparse→dense between clears/fills.
			if wasDense && !s.Dense() {
				t.Fatal("set returned to sparse without Clear/Fill")
			}
			wasDense = s.Dense()
			switch r {
			case RepDense:
				if !s.Dense() {
					t.Fatal("RepDense kept a list")
				}
			case RepSparse:
				if n > 0 && s.Dense() {
					t.Fatal("RepSparse abandoned the list")
				}
			}
			got := s.AppendAscending(nil)
			if len(got) != len(oracle) {
				t.Fatalf("enumeration len=%d oracle=%d", len(got), len(oracle))
			}
			for j, v := range got {
				if j > 0 && got[j-1] >= v {
					t.Fatalf("enumeration not ascending at %d: %v", j, got)
				}
				if !oracle[v] {
					t.Fatalf("enumeration has non-member %d", v)
				}
			}
			// Each visits the same population, in whatever order.
			var each []int64
			s.Each(func(v int64) { each = append(each, v) })
			slices.Sort(each)
			if !slices.Equal(each, got) {
				t.Fatalf("Each visited %v, enumeration %v", each, got)
			}
		}
	})
}
