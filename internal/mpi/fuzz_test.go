package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"
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

// FuzzTCPFrames feeds arbitrary bytes to the TCP reader as one peer's stream.
// The stream is written frame by frame, and the receiver releases every
// payload before the next frame is read, so the reader fills buffers that
// held earlier, longer frames. Every message delivered must be exactly its
// frame — tag, length and bytes, nothing left over from a previous frame —
// in stream order; the stream's end must fail the next receive typed, as
// *ErrPeerLost: a departure after a goodbye frame, a loss after a truncated
// frame, an over-long one or no goodbye at all.
func FuzzTCPFrames(f *testing.F) {
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	goodbye := wireFrame(goodbyeTag, nil)
	f.Add(cat(wireFrame(1, fill(3000, 1)), wireFrame(2, fill(1500, 2)), wireFrame(3, nil), wireFrame(4, fill(2000, 4)), goodbye))
	f.Add(cat(wireFrame(7, fill(5000, 7)), wireFrame(7, fill(1024, 8)), goodbye, goodbye))
	f.Add(cat(wireFrame(1, []byte("short")), wireFrame(5, fill(4096, 5))[:2000]))
	f.Add(cat(wireFrame(1, fill(2048, 1)), goodbye, wireFrame(2, []byte("late"))))
	f.Add(cat(wireFrame(goodbyeTag, []byte("not a goodbye")), goodbye))
	over := wireFrame(9, nil)
	binary.LittleEndian.PutUint32(over[4:], maxTCPFrame+1)
	f.Add(cat(wireFrame(1, fill(1200, 1)), over))
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, stream []byte) {
		// The reference parse: the frames the reader must deliver, each
		// with the bytes of the stream that carry it, and how it ends.
		type frame struct {
			wire []byte
			tag  int
			data []byte // nil: a goodbye, which delivers nothing
		}
		var frames []frame
		departed, lost := false, false
		rest := stream
		for !lost && len(rest) > 0 {
			if len(rest) < tcpHeaderSize {
				lost = true
				break
			}
			tag := int(int32(binary.LittleEndian.Uint32(rest)))
			n := binary.LittleEndian.Uint32(rest[4:])
			switch {
			case tag == goodbyeTag && n == 0:
				departed = true
				frames = append(frames, frame{wire: rest[:tcpHeaderSize]})
				rest = rest[tcpHeaderSize:]
				continue
			case n > maxTCPFrame, departed:
				lost = true
				continue
			case n > 64<<10:
				t.Skip("the reader allocates a frame whole before reading it: past 64 KiB, an input costs more memory than it covers")
			case uint64(len(rest)-tcpHeaderSize) < uint64(n):
				lost = true
				continue
			}
			end := tcpHeaderSize + int(n)
			frames = append(frames, frame{wire: rest[:end], tag: tag, data: append([]byte{}, rest[tcpHeaderSize:end]...)})
			rest = rest[end:]
		}

		ep, wire := fakeWireEndpoint()
		defer ep.Close()
		defer wire.Close()
		delivered := make(chan struct{})
		go func() {
			for _, fr := range frames {
				if _, err := wire.Write(fr.wire); err != nil {
					return
				}
				if fr.data != nil {
					<-delivered
				}
			}
			wire.Write(rest) //nolint:errcheck // the reader may have stopped first
			wire.Close()
		}()
		for i, fr := range frames {
			if fr.data == nil {
				continue
			}
			msg, err := ep.RecvTimeout(0, AnyTag, 10*time.Second)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if msg.Tag != fr.tag || !bytes.Equal(msg.Data, fr.data) {
				t.Fatalf("frame %d: delivered tag %d and %d bytes, the stream holds tag %d and %d bytes", i, msg.Tag, len(msg.Data), fr.tag, len(fr.data))
			}
			ep.Release(msg.Data)
			delivered <- struct{}{}
		}
		_, err := ep.RecvTimeout(0, AnyTag, 10*time.Second)
		var pl *ErrPeerLost
		if !errors.As(err, &pl) || pl.Peer != 0 {
			t.Fatalf("after the stream: %v, want *ErrPeerLost", err)
		}
		// Data after a goodbye fails the queue after the departure was
		// recorded; a receive in between sees the departure.
		if gone := errors.Is(err, errDeparted); (departed && !lost && !gone) || (!departed && gone) {
			t.Fatalf("after the stream: %v; goodbye seen: %v, stream broken: %v", err, departed, lost)
		}
	})
}
