package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
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

// FuzzMeshHandshake feeds arbitrary dialer bytes to acceptHandshake over a
// net.Pipe, for an acceptor of any rank in a world of up to 8 with any fence.
// The dialer sends the first handshakeSize bytes — all of them when there are
// fewer, then hangs up — and reads the ack. A connection is accepted if and
// only if its 12 bytes name a rank above the acceptor's and below the world
// size and carry the world's fence; the ack byte is 1 exactly then; a rejected
// connection, short, garbage or fenced, comes back !ok and closed; an accepted
// one stays open. Nothing panics.
func FuzzMeshHandshake(f *testing.F) {
	hs := func(rank int32, fence uint64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(rank))
		return binary.LittleEndian.AppendUint64(b, fence)
	}
	f.Add(uint8(0), uint8(3), uint64(7), hs(2, 7))                  // accepted
	f.Add(uint8(1), uint8(3), uint64(7), hs(1, 7))                  // own rank
	f.Add(uint8(1), uint8(3), uint64(7), hs(0, 7))                  // a rank this one dials
	f.Add(uint8(0), uint8(3), uint64(7), hs(3, 7))                  // past the world
	f.Add(uint8(0), uint8(3), uint64(7), hs(-1, 7))                 // negative
	f.Add(uint8(0), uint8(3), uint64(7), hs(2, 6))                  // stale fence
	f.Add(uint8(0), uint8(2), uint64(0), hs(1, 0)[:7])              // short
	f.Add(uint8(0), uint8(2), uint64(0), append(hs(1, 0), 1, 2, 3)) // data behind it
	f.Add(uint8(0), uint8(2), uint64(0), []byte{})

	f.Fuzz(func(t *testing.T, own, size uint8, fence uint64, dial []byte) {
		size = size%8 + 1
		own %= size
		cfg := TCPWorldConfig{Rank: int(own), Addrs: make([]string, size), Fence: fence}
		want := false
		if len(dial) >= handshakeSize {
			peer := int32(binary.LittleEndian.Uint32(dial))
			want = peer > int32(own) && peer < int32(size) && binary.LittleEndian.Uint64(dial[4:]) == fence
		}

		server, client := net.Pipe()
		defer client.Close()
		acks := make(chan []byte, 1)
		go func() {
			if len(dial) < handshakeSize {
				client.Write(dial) //nolint:errcheck // the acceptor may have hung up first
				client.Close()
				acks <- nil
				return
			}
			if _, err := client.Write(dial[:handshakeSize]); err != nil {
				acks <- nil
				return
			}
			ack, _ := io.ReadAll(io.LimitReader(client, 1))
			acks <- ack
		}()
		peer, ok := acceptHandshake(server, cfg, 5*time.Second)
		ack := <-acks

		if ok != want {
			t.Fatalf("rank %d of %d, fence %d: handshake %x accepted = %v, want %v", own, size, fence, dial, ok, want)
		}
		switch {
		case len(dial) < handshakeSize && ack != nil:
			t.Fatalf("short handshake %x answered %x", dial, ack)
		case len(dial) >= handshakeSize && (len(ack) != 1 || (ack[0] == 1) != want):
			t.Fatalf("handshake %x (accepted = %v) answered %x", dial, want, ack)
		}
		open := server.SetDeadline(time.Time{}) == nil // net.Pipe refuses deadlines once closed
		if ok {
			if peer != int(int32(binary.LittleEndian.Uint32(dial))) {
				t.Fatalf("accepted as peer %d, the handshake names %x", peer, dial[:4])
			}
			if !open {
				t.Fatal("an accepted connection was closed")
			}
			server.Close()
		} else if open {
			t.Fatalf("rejected handshake %x left the connection open", dial)
		}
	})
}
