package mpi

import (
	"testing"
)

// FuzzVarintCodec drives the varint decoders with arbitrary bytes.
// The decoders must never panic or over-allocate on corrupt input, and any
// value stream they accept must re-encode and decode back to itself (the
// codec is canonical in the value direction — every int64 has exactly one
// round-trip image).
func FuzzVarintCodec(f *testing.F) {
	f.Add(AppendDeltaInt64s(nil, nil))
	f.Add(AppendDeltaInt64s(nil, []int64{0}))
	f.Add(AppendDeltaInt64s(nil, []int64{3, 5, 6, 100, 1 << 40}))
	f.Add(AppendDeltaInt64s(nil, []int64{-9, -2, 7, 7, 3})) // unsorted and negative
	// Corrupt variants seed the rejection paths: truncated tail, an entry
	// count far beyond the payload, an overlong varint.
	big := AppendDeltaInt64s(nil, []int64{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(big[:len(big)-2])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		vs, err := DecodeDeltaInt64s(data)
		if err != nil {
			// Rejected is always acceptable; the guards above must have
			// kept the decoder from allocating past the input size.
			return
		}
		re := AppendDeltaInt64s(nil, vs)
		back, err := DecodeDeltaInt64s(re)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if len(back) != len(vs) {
			t.Fatalf("round trip changed length: %d -> %d", len(vs), len(back))
		}
		for i := range vs {
			if back[i] != vs[i] {
				t.Fatalf("round trip changed value %d: %d -> %d", i, vs[i], back[i])
			}
		}

		// The scalar varint path must agree with itself too: decode every
		// remaining byte as zigzag varints and round-trip each.
		d := NewDecoder(data)
		for d.Remaining() > 0 {
			v, err := d.Varint()
			if err != nil {
				break
			}
			buf := AppendVarint(nil, v)
			v2, err := NewDecoder(buf).Varint()
			if err != nil || v2 != v {
				t.Fatalf("varint round trip: %d -> %d (err %v)", v, v2, err)
			}
		}
	})
}
