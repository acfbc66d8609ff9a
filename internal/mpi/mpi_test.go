package mpi

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestInprocSendRecvBasic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("hello"))
		}
		msg, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(msg.Data) != "hello" || msg.From != 0 || msg.Tag != 7 {
			return fmt.Errorf("bad message %+v", msg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInprocSendCopiesData(t *testing.T) {
	// Mutating the buffer after Send must not be observable at the
	// receiver: the world simulates distributed memory.
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			buf[0] = 99
			return nil
		}
		msg, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if msg.Data[0] != 1 {
			return fmt.Errorf("receiver observed sender mutation: %v", msg.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagMatching(t *testing.T) {
	// A receive for tag B must skip an earlier pending message with tag A
	// and deliver both in the right order.
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []byte("first")); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("second"))
		}
		m2, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		m1, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(m2.Data) != "second" || string(m1.Data) != "first" {
			return fmt.Errorf("tag matching broke: %q %q", m1.Data, m2.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// recvInt64 receives one message holding a single encoded int64.
func recvInt64(c *Comm, from, tag int) (int64, error) {
	msg, err := c.Recv(from, tag)
	if err != nil {
		return 0, err
	}
	vals, err := DecodeInt64s(msg.Data)
	if err != nil {
		return 0, err
	}
	if len(vals) != 1 {
		return 0, fmt.Errorf("message holds %d values, want 1", len(vals))
	}
	return vals[0], nil
}

func TestRecvOrderingSameTag(t *testing.T) {
	const n = 100
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 3, EncodeInt64s([]int64{int64(i)})); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			got, err := recvInt64(c, 0, 3)
			if err != nil {
				return err
			}
			if got != int64(i) {
				return fmt.Errorf("out-of-order delivery: got %d want %d", got, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnySource(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if c.Rank() != 0 {
			return c.Send(0, 5, EncodeInt64s([]int64{int64(c.Rank())}))
		}
		seen := map[int64]bool{}
		for i := 0; i < 3; i++ {
			msg, err := c.Recv(AnySource, 5)
			if err != nil {
				return err
			}
			vals, err := DecodeInt64s(msg.Data)
			if err != nil {
				return err
			}
			seen[vals[0]] = true
		}
		if len(seen) != 3 {
			return fmt.Errorf("expected 3 distinct sources, got %v", seen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendInvalidPeer(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if err := c.Send(5, 0, nil); err == nil {
			return fmt.Errorf("expected error for out-of-range peer")
		}
		if err := c.Send(-1, 0, nil); err == nil {
			return fmt.Errorf("expected error for negative peer")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendInvalidTag(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := c.Send(1, MaxUserTag+1, nil); err == nil {
			return fmt.Errorf("expected error for reserved tag")
		}
		if err := c.Send(1, -5, nil); err == nil {
			return fmt.Errorf("expected error for negative tag")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	sentinel := fmt.Errorf("rank failure")
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		// The other ranks block; Run must unblock them by closing the
		// world when rank 1 fails.
		_, err := c.Recv(AnySource, AnyTag)
		if err != ErrClosed {
			return fmt.Errorf("expected ErrClosed, got %v", err)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestRunRecoversPanic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			panic("boom")
		}
		_, _ = c.Recv(AnySource, AnyTag)
		return nil
	})
	if err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

func TestBarrierAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 8, 13, 16} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			var mu sync.Mutex
			phase := make([]int, p)
			err := Run(p, func(c *Comm) error {
				for step := 0; step < 3; step++ {
					mu.Lock()
					phase[c.Rank()] = step
					mu.Unlock()
					if err := c.Barrier(); err != nil {
						return err
					}
					// After the barrier every rank must have recorded at
					// least this step.
					mu.Lock()
					for r, ph := range phase {
						if ph < step {
							mu.Unlock()
							return fmt.Errorf("rank %d at phase %d, expected >= %d", r, ph, step)
						}
					}
					mu.Unlock()
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBcastAllRootsAndSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		for root := 0; root < p; root++ {
			p, root := p, root
			t.Run(fmt.Sprintf("p=%d root=%d", p, root), func(t *testing.T) {
				payload := []byte(fmt.Sprintf("payload-from-%d", root))
				err := Run(p, func(c *Comm) error {
					var in []byte
					if c.Rank() == root {
						in = payload
					}
					out, err := c.Bcast(root, in)
					if err != nil {
						return err
					}
					if !bytes.Equal(out, payload) {
						return fmt.Errorf("rank %d got %q", c.Rank(), out)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestAllreduceSumMinMax(t *testing.T) {
	const p = 5
	results, err := RunCollect(p, func(c *Comm) ([3]float64, error) {
		v := float64(c.Rank() + 1)
		sum, err := c.AllreduceFloat64(v, OpSum)
		if err != nil {
			return [3]float64{}, err
		}
		mn, err := c.AllreduceFloat64(v, OpMin)
		if err != nil {
			return [3]float64{}, err
		}
		mx, err := c.AllreduceFloat64(v, OpMax)
		if err != nil {
			return [3]float64{}, err
		}
		return [3]float64{sum, mn, mx}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, got := range results {
		if got[0] != 15 || got[1] != 1 || got[2] != 5 {
			t.Fatalf("rank %d: got %v want [15 1 5]", r, got)
		}
	}
}

func TestAllreduceVector(t *testing.T) {
	const p = 4
	results, err := RunCollect(p, func(c *Comm) ([]int64, error) {
		vec := []int64{int64(c.Rank()), 10, -int64(c.Rank())}
		return c.AllreduceInt64s(vec, OpSum)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{6, 40, -6}
	for r, got := range results {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d: got %v want %v", r, got, want)
			}
		}
	}
}

func TestExscanInt64(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 8, 11, 16} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			results, err := RunCollect(p, func(c *Comm) (int64, error) {
				return c.ExscanInt64(int64(c.Rank() + 1))
			})
			if err != nil {
				t.Fatal(err)
			}
			want := int64(0)
			for r := 0; r < p; r++ {
				if results[r] != want {
					t.Fatalf("rank %d: exscan got %d want %d", r, results[r], want)
				}
				want += int64(r + 1)
			}
		})
	}
}

func TestAllOK(t *testing.T) {
	const p = 4
	// All clean: nil everywhere.
	err := Run(p, func(c *Comm) error {
		return c.AllOK(nil)
	})
	if err != nil {
		t.Fatalf("all-nil AllOK: %v", err)
	}
	// One failed rank: every rank must see a non-nil outcome, the failed
	// rank its own error, the others one naming the failed rank.
	boom := fmt.Errorf("disk full")
	results, err := RunCollect(p, func(c *Comm) (string, error) {
		var local error
		if c.Rank() == 2 {
			local = boom
		}
		got := c.AllOK(local)
		if got == nil {
			return "", fmt.Errorf("rank %d: AllOK returned nil despite rank 2's failure", c.Rank())
		}
		if c.Rank() == 2 && got != boom {
			return "", fmt.Errorf("failed rank did not get its own error back: %v", got)
		}
		return got.Error(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, msg := range results {
		if r != 2 && msg != "mpi: rank 2 reported failure" {
			t.Fatalf("rank %d saw %q", r, msg)
		}
	}
}

func TestAllgather(t *testing.T) {
	const p = 6
	results, err := RunCollect(p, func(c *Comm) ([][]byte, error) {
		return c.Allgather(EncodeInt64s([]int64{int64(c.Rank() * c.Rank())}))
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, blocks := range results {
		if len(blocks) != p {
			t.Fatalf("rank %d: allgather returned %d blocks, want %d", r, len(blocks), p)
		}
		for q, b := range blocks {
			got, err := DecodeInt64s(b)
			if err != nil || len(got) != 1 || got[0] != int64(q*q) {
				t.Fatalf("rank %d: allgather[%d]=%v (%v) want [%d]", r, q, got, err, q*q)
			}
		}
	}
}

func TestGatherv(t *testing.T) {
	const p, root = 5, 2
	err := Run(p, func(c *Comm) error {
		data := bytes.Repeat([]byte{byte(c.Rank())}, c.Rank()+1)
		out, err := c.Gatherv(root, data)
		if err != nil {
			return err
		}
		if c.Rank() != root {
			if out != nil {
				return fmt.Errorf("non-root got data")
			}
			return nil
		}
		for q := 0; q < p; q++ {
			want := bytes.Repeat([]byte{byte(q)}, q+1)
			if !bytes.Equal(out[q], want) {
				return fmt.Errorf("root: block %d = %v want %v", q, out[q], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			err := Run(p, func(c *Comm) error {
				send := make([][]byte, p)
				for q := 0; q < p; q++ {
					send[q] = []byte(fmt.Sprintf("%d->%d", c.Rank(), q))
				}
				recv, err := c.Alltoall(send)
				if err != nil {
					return err
				}
				for q := 0; q < p; q++ {
					want := fmt.Sprintf("%d->%d", q, c.Rank())
					if string(recv[q]) != want {
						return fmt.Errorf("rank %d: recv[%d]=%q want %q", c.Rank(), q, recv[q], want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAlltoallEmptyBuffers(t *testing.T) {
	const p = 4
	err := Run(p, func(c *Comm) error {
		send := make([][]byte, p) // all nil
		recv, err := c.Alltoall(send)
		if err != nil {
			return err
		}
		for q := 0; q < p; q++ {
			if len(recv[q]) != 0 {
				return fmt.Errorf("expected empty buffer from %d", q)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallWrongLength(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		_, err := c.Alltoall(make([][]byte, 3))
		if err == nil {
			return fmt.Errorf("expected length-mismatch error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBackToBackCollectivesDoNotInterfere(t *testing.T) {
	// Two consecutive collectives of the same kind must not steal each
	// other's messages even when ranks race ahead.
	const p = 4
	err := Run(p, func(c *Comm) error {
		for i := 0; i < 50; i++ {
			got, err := c.AllreduceInt64(int64(i), OpSum)
			if err != nil {
				return err
			}
			if got != int64(i*p) {
				return fmt.Errorf("iteration %d: got %d want %d", i, got, i*p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesInterleavedWithP2P(t *testing.T) {
	const p = 3
	err := Run(p, func(c *Comm) error {
		next := (c.Rank() + 1) % p
		prev := (c.Rank() + p - 1) % p
		for i := 0; i < 10; i++ {
			if err := c.Send(next, 9, EncodeInt64s([]int64{int64(i)})); err != nil {
				return err
			}
			if _, err := c.AllreduceInt64(1, OpSum); err != nil {
				return err
			}
			got, err := recvInt64(c, prev, 9)
			if err != nil {
				return err
			}
			if got != int64(i) {
				return fmt.Errorf("p2p corrupted by collective: got %d want %d", got, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		before := c.Stats().Snapshot()
		if c.Rank() == 0 {
			if err := c.Send(1, 0, make([]byte, 100)); err != nil {
				return err
			}
		} else {
			if _, err := c.Recv(0, 0); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		d := c.Stats().Snapshot().Sub(before)
		if c.Rank() == 0 && (d.SentMsgs != 1 || d.SentBytes != 100) {
			return fmt.Errorf("rank 0 stats %+v", d)
		}
		if c.Rank() == 1 && (d.RecvMsgs != 1 || d.RecvBytes != 100) {
			return fmt.Errorf("rank 1 stats %+v", d)
		}
		if d.CollectiveOps != 1 {
			return fmt.Errorf("expected 1 collective op, got %+v", d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: for any vector of int64 values distributed over p ranks,
// allreduce(sum) equals the serial sum and exscan produces serial prefix
// sums. This exercises arbitrary values through the tree algorithms.
func TestQuickAllreduceExscanMatchSerial(t *testing.T) {
	f := func(vals []int64, psize uint8) bool {
		p := int(psize%7) + 1
		if len(vals) < p {
			return true // not enough values to distribute; trivially pass
		}
		vals = vals[:p]
		var total int64
		prefix := make([]int64, p)
		var run int64
		for i, v := range vals {
			prefix[i] = run
			run += v
			total += v
		}
		type res struct {
			sum, pre int64
		}
		results, err := RunCollect(p, func(c *Comm) (res, error) {
			s, err := c.AllreduceInt64(vals[c.Rank()], OpSum)
			if err != nil {
				return res{}, err
			}
			e, err := c.ExscanInt64(vals[c.Rank()])
			if err != nil {
				return res{}, err
			}
			return res{s, e}, nil
		})
		if err != nil {
			return false
		}
		for r, got := range results {
			if got.sum != total || got.pre != prefix[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: alltoall is its own inverse pattern — the matrix of payloads is
// transposed exactly.
func TestQuickAlltoallTransposes(t *testing.T) {
	f := func(seed int64, psize uint8) bool {
		p := int(psize%5) + 1
		matrix := make([][][]byte, p)
		for i := range matrix {
			matrix[i] = make([][]byte, p)
			for j := range matrix[i] {
				n := int((seed+int64(i*7+j*13))%17+17) % 17
				buf := make([]byte, n)
				for k := range buf {
					buf[k] = byte(seed + int64(i+j+k))
				}
				matrix[i][j] = buf
			}
		}
		results, err := RunCollect(p, func(c *Comm) ([][]byte, error) {
			return c.Alltoall(matrix[c.Rank()])
		})
		if err != nil {
			return false
		}
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if !bytes.Equal(results[i][j], matrix[j][i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 42}
	got, err := DecodeInt64s(EncodeInt64s(ints))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ints {
		if got[i] != ints[i] {
			t.Fatalf("int64 round trip: %v != %v", got, ints)
		}
	}
	floats := []float64{0, 1.5, -2.25, math.Inf(1), math.SmallestNonzeroFloat64}
	gf, err := DecodeFloat64s(EncodeFloat64s(floats))
	if err != nil {
		t.Fatal(err)
	}
	for i := range floats {
		if gf[i] != floats[i] {
			t.Fatalf("float64 round trip: %v != %v", gf, floats)
		}
	}
}

func TestCodecNaNRoundTrip(t *testing.T) {
	gf, err := DecodeFloat64s(EncodeFloat64s([]float64{math.NaN()}))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(gf[0]) {
		t.Fatalf("NaN did not survive round trip: %v", gf[0])
	}
}

func TestDecoderErrors(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	if _, err := d.Uint64(); err == nil {
		t.Fatal("expected short-buffer error")
	}
	if _, err := DecodeInt64s([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected misaligned-buffer error")
	}
	if _, err := DecodeFloat64s(make([]byte, 12)); err == nil {
		t.Fatal("expected misaligned-buffer error")
	}
}

func TestDecoderSequential(t *testing.T) {
	var buf []byte
	buf = AppendInt64(buf, -7)
	buf = AppendFloat64(buf, 3.5)
	buf = AppendUint64(buf, 99)
	d := NewDecoder(buf)
	if v, err := d.Int64(); err != nil || v != -7 {
		t.Fatalf("Int64 = %d, %v", v, err)
	}
	if v, err := d.Float64(); err != nil || v != 3.5 {
		t.Fatalf("Float64 = %g, %v", v, err)
	}
	if v, err := d.Uint64(); err != nil || v != 99 {
		t.Fatalf("Uint64 = %d, %v", v, err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d", d.Remaining())
	}
}

func TestSnapshotArithmetic(t *testing.T) {
	a := Snapshot{SentMsgs: 5, SentBytes: 100, CollBytes: 7}
	b := Snapshot{SentMsgs: 2, SentBytes: 40, CollBytes: 3}
	d := a.Sub(b)
	if d.SentMsgs != 3 || d.SentBytes != 60 || d.CollBytes != 4 {
		t.Fatalf("Sub: %+v", d)
	}
	s := a.Add(b)
	if s.SentMsgs != 7 || s.SentBytes != 140 {
		t.Fatalf("Add: %+v", s)
	}
	if a.TotalBytes() != 107 {
		t.Fatalf("TotalBytes: %d", a.TotalBytes())
	}
}
