package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The codec helpers serialize the numeric slices the Louvain protocol
// exchanges. The fixed-width helpers are little-endian, like the binary graph
// format, so a TCP world can mix machines without byte-order trouble; the
// collectives and graph assembly use them. The per-iteration frames use the
// LEB128 varint helpers with zigzag signing for IDs and counts — vertex and
// community IDs are small relative to 8 bytes, and the protocols' canonically
// sorted ID streams delta-encode into 1–2 byte gaps. Float weights stay
// fixed64 everywhere: varints cannot shorten them and bit-exactness is
// non-negotiable.

// AppendUint64 appends v to buf.
func AppendUint64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// AppendInt64 appends v to buf.
func AppendInt64(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}

// AppendFloat64 appends v to buf.
func AppendFloat64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// AppendInt64s appends a bare (no length prefix) int64 vector to buf.
func AppendInt64s(buf []byte, vs []int64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

// AppendFloat64s appends a bare float64 vector to buf.
func AppendFloat64s(buf []byte, vs []float64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// AppendUvarint appends v in LEB128: 7 value bits per byte, high bit set on
// every byte but the last.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendVarint appends v zigzag-mapped to a uvarint, so small negative
// values stay short (−1 → 1 byte, not 10).
func AppendVarint(buf []byte, v int64) []byte {
	return binary.AppendUvarint(buf, zigzag(v))
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendDeltaInt64s appends vs as a self-delimiting varint stream: a uvarint
// count, the first value as a zigzag varint, then each successive value as
// the zigzag varint of its gap to the predecessor. Sorted ID streams (ghost
// lists, community-info requests) collapse to ~1 byte per entry; unsorted
// input round-trips too, just less compactly.
func AppendDeltaInt64s(buf []byte, vs []int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	prev := int64(0)
	for _, v := range vs {
		buf = binary.AppendUvarint(buf, zigzag(v-prev))
		prev = v
	}
	return buf
}

// Decoder reads fixed-width values from a byte slice produced by the Append
// helpers.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder wraps buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Remaining reports the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) need(n int) error {
	if d.off+n > len(d.buf) {
		return fmt.Errorf("mpi: decode past end of %d-byte buffer (offset %d, need %d)", len(d.buf), d.off, n)
	}
	return nil
}

// Uint64 decodes the next value.
func (d *Decoder) Uint64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// Int64 decodes the next value.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Float64 decodes the next value.
func (d *Decoder) Float64() (float64, error) {
	v, err := d.Uint64()
	return math.Float64frombits(v), err
}

// Uvarint decodes one LEB128 value.
func (d *Decoder) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("mpi: truncated or overlong uvarint at offset %d of %d-byte buffer", d.off, len(d.buf))
	}
	d.off += n
	return v, nil
}

// Varint decodes one zigzag varint.
func (d *Decoder) Varint() (int64, error) {
	v, err := d.Uvarint()
	return unzigzag(v), err
}

// DeltaInt64s decodes a stream written by AppendDeltaInt64s.
func (d *Decoder) DeltaInt64s() ([]int64, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	// Every entry costs at least one byte, so a count beyond the remaining
	// bytes is corrupt; reject it before allocating (fuzz robustness).
	if n > uint64(d.Remaining()) {
		return nil, fmt.Errorf("mpi: delta stream claims %d entries with %d bytes left", n, d.Remaining())
	}
	out := make([]int64, n)
	prev := int64(0)
	for i := range out {
		gap, err := d.Varint()
		if err != nil {
			return nil, err
		}
		prev += gap
		out[i] = prev
	}
	return out, nil
}

// Int64s decodes n values.
func (d *Decoder) Int64s(n int) ([]int64, error) {
	if err := d.need(8 * n); err != nil {
		return nil, err
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(d.buf[d.off:]))
		d.off += 8
	}
	return out, nil
}

// Float64s decodes n values.
func (d *Decoder) Float64s(n int) ([]float64, error) {
	if err := d.need(8 * n); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
		d.off += 8
	}
	return out, nil
}

// Arena is a pool of reusable encode buffers for the per-iteration message
// paths (ghost exchange, community deltas, info requests). Grab hands out a
// zero-length buffer backed by previously grown storage; Reset recycles
// every buffer at once. After a few iterations the buffers reach their
// steady-state capacities and the encode paths stop allocating entirely.
//
// Reusing a buffer that was passed to a collective is safe once the call
// has returned: Transport.SendSegments contractually copies the payload
// before it returns (in process into a buffer the receiving rank released,
// over TCP into a frame of the sender's pool), so the arena's buffers never escape
// into the transport. That contract is what lets the encode path go
// "zero-copy" — the only copy left is the transport's own. The receive side
// is the arena's mirror image: a rank releases each frame it has decoded
// (Comm.Release), and the next message to it is copied into that storage.
//
// An Arena is not safe for concurrent use; keep one per rank (the encode
// loops are single-threaded driver code).
type Arena struct {
	bufs [][]byte
	next int
}

// Reset makes every grabbed buffer available again. Buffers handed out before
// Reset must not be written afterwards — their storage will be reissued.
func (a *Arena) Reset() { a.next = 0 }

// Grab returns a pointer to a zero-length buffer slot. Append through the
// pointer (*bp = AppendInt64(*bp, v)) so capacity growth is retained for
// the next cycle.
func (a *Arena) Grab() *[]byte {
	if a.next == len(a.bufs) {
		a.bufs = append(a.bufs, nil)
	}
	bp := &a.bufs[a.next]
	a.next++
	*bp = (*bp)[:0]
	return bp
}

// EncodeInt64s serializes vs into a fresh buffer.
func EncodeInt64s(vs []int64) []byte {
	return AppendInt64s(make([]byte, 0, 8*len(vs)), vs)
}

// DecodeInt64s deserializes a buffer holding only int64s.
func DecodeInt64s(buf []byte) ([]int64, error) {
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("mpi: int64 buffer length %d not a multiple of 8", len(buf))
	}
	return NewDecoder(buf).Int64s(len(buf) / 8)
}

// DecodeDeltaInt64s deserializes a buffer holding exactly one delta stream.
func DecodeDeltaInt64s(buf []byte) ([]int64, error) {
	d := NewDecoder(buf)
	vs, err := d.DeltaInt64s()
	if err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("mpi: %d trailing bytes after delta stream", d.Remaining())
	}
	return vs, nil
}

// EncodeFloat64s serializes vs into a fresh buffer.
func EncodeFloat64s(vs []float64) []byte {
	return AppendFloat64s(make([]byte, 0, 8*len(vs)), vs)
}

// DecodeFloat64s deserializes a buffer holding only float64s.
func DecodeFloat64s(buf []byte) ([]float64, error) {
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("mpi: float64 buffer length %d not a multiple of 8", len(buf))
	}
	return NewDecoder(buf).Float64s(len(buf) / 8)
}
