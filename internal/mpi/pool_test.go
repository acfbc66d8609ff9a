package mpi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// openEndpoints opens a world of p ranks, in process or over loopback TCP,
// and returns its endpoints; the test closes them.
func openEndpoints(t *testing.T, tcp bool, p int) []Transport {
	t.Helper()
	eps := make([]Transport, p)
	if !tcp {
		w, err := NewInprocWorld(p)
		if err != nil {
			t.Fatal(err)
		}
		for r := range eps {
			eps[r] = w.Endpoint(r)
		}
		return eps
	}
	addrs := freeAddrs(t, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := range eps {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			eps[r], errs[r] = DialTCPWorld(TCPWorldConfig{Rank: r, Addrs: addrs})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return eps
}

func closeEndpoints(eps []Transport) {
	var wg sync.WaitGroup
	for _, ep := range eps {
		wg.Add(1)
		go func(ep Transport) {
			defer wg.Done()
			ep.Close()
		}(ep)
	}
	wg.Wait()
}

func transportName(tcp bool) string {
	if tcp {
		return "tcp"
	}
	return "inproc"
}

// TestAlltoallReleaseAllocatesNoPayload: in a steady Alltoall of fixed-size
// frames whose receivers release what they decoded, every payload — the peers'
// copies, the TCP writer's frames and the rank's own copy — lands in a buffer
// released before, so after warm-up a round allocates only each rank's recv
// table, on both transports. Without Release a round allocates p·p payloads
// (twice that over TCP).
func TestAlltoallReleaseAllocatesNoPayload(t *testing.T) {
	const p, frame = 3, 4 << 10
	for _, tcp := range []bool{false, true} {
		t.Run(transportName(tcp), func(t *testing.T) {
			eps := openEndpoints(t, tcp, p)
			defer closeEndpoints(eps)
			start := make([]chan bool, p) // true: run a round; false: stop
			done := make(chan error, p)
			for r := range eps {
				start[r] = make(chan bool)
				go func(c *Comm) {
					send := make([][]byte, p)
					for q := range send {
						send[q] = bytes.Repeat([]byte{byte(c.Rank())}, frame)
					}
					for <-start[c.Rank()] {
						recv, err := c.Alltoall(send)
						for q, b := range recv {
							if err == nil && (len(b) != frame || b[0] != byte(q) || b[frame-1] != byte(q)) {
								err = fmt.Errorf("rank %d: the frame from rank %d is wrong", c.Rank(), q)
							}
						}
						c.Release(recv...)
						done <- err
					}
				}(NewComm(eps[r]))
			}
			defer func() {
				for _, ch := range start {
					ch <- false
				}
			}()
			round := func() {
				for _, ch := range start {
					ch <- true
				}
				for range start {
					if err := <-done; err != nil {
						t.Error(err)
					}
				}
			}
			for i := 0; i < 5; i++ {
				round()
			}
			allocs := testing.AllocsPerRun(50, round)
			if allocs > p {
				t.Fatalf("a steady round allocates %.1f times, want at most %d (one recv table per rank)", allocs, p)
			}
		})
	}
}

// TestReleasedBufferNeverShared: a buffer released twice enters the pool
// once, so the two messages pending next at the rank are delivered in
// distinct storage. Under -race, writing one while reading the other would
// report a shared buffer even where the contents happen to agree.
func TestReleasedBufferNeverShared(t *testing.T) {
	const size = 2 << 10
	payload := func(b byte) []byte { return bytes.Repeat([]byte{b}, size) }
	sameStorage := func(a, b []byte) bool { return &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1] }

	q := newMatchQueue()
	b := make([]byte, size)
	q.release(b)
	q.release(b[1:])
	if x, y := q.acquire(size-1), q.acquire(size-1); sameStorage(x, y) {
		t.Fatal("the pool handed out one buffer twice")
	}

	for _, tcp := range []bool{false, true} {
		t.Run(transportName(tcp), func(t *testing.T) {
			eps := openEndpoints(t, tcp, 2)
			defer closeEndpoints(eps)
			c0, c1 := NewComm(eps[0]), NewComm(eps[1])
			if err := c0.Send(1, 1, payload(1)); err != nil {
				t.Fatal(err)
			}
			m, err := c1.Recv(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			c1.Release(m.Data)
			c1.Release(m.Data)
			for tag := 2; tag <= 3; tag++ {
				if err := c0.Send(1, tag, payload(byte(tag))); err != nil {
					t.Fatal(err)
				}
			}
			a, err := c1.Recv(0, 2)
			if err != nil {
				t.Fatal(err)
			}
			b, err := c1.Recv(0, 3)
			if err != nil {
				t.Fatal(err)
			}
			if sameStorage(a.Data, b.Data) {
				t.Fatal("two pending messages were delivered in one buffer")
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := range a.Data {
					a.Data[i] = 0
				}
			}()
			go func() {
				defer wg.Done()
				if !bytes.Equal(b.Data, payload(3)) {
					t.Error("the second message's payload changed")
				}
			}()
			wg.Wait()
		})
	}
}

// TestAlltoallSegments: a payload sent as segments — none, only empty ones,
// one, or many of uneven length with empty ones between them — arrives as the
// one message its concatenation would, byte for byte, over every transport,
// and the exchange counts the messages and bytes the whole-buffer Alltoall
// counts.
func TestAlltoallSegments(t *testing.T) {
	const p = 3
	payload := func(from, to int) []byte {
		b := make([]byte, 5000+1000*from+7*to)
		for i := range b {
			b[i] = byte(i*31 + from*7 + to)
		}
		return b
	}
	cases := []struct {
		name  string
		split func(b []byte) [][]byte
	}{
		{"no segments", func([]byte) [][]byte { return nil }},
		{"empty segments", func([]byte) [][]byte { return [][]byte{{}, nil, {}} }},
		{"one segment", func(b []byte) [][]byte { return [][]byte{b} }},
		{"many segments", func(b []byte) [][]byte {
			var segs [][]byte
			for k := 1; len(b) > 0; k = k*3%97 + 1 {
				k := min(k, len(b))
				segs = append(segs, b[:k], nil)
				b = b[k:]
			}
			return segs
		}},
	}
	for _, transport := range []string{"inproc", "tcp", "fault"} {
		t.Run(transport, func(t *testing.T) {
			eps := openEndpoints(t, transport == "tcp", p)
			defer closeEndpoints(eps)
			if transport == "fault" {
				for r, ep := range eps {
					eps[r] = NewFaultTransport(ep, FaultPlan{})
				}
			}
			errs := make(chan error, p)
			for r := range eps {
				go func(c *Comm) {
					errs <- func() error {
						for _, tc := range cases {
							whole, segs := make([][]byte, p), make([][][]byte, p)
							for q := range segs {
								segs[q] = tc.split(payload(c.Rank(), q))
								for _, s := range segs[q] {
									whole[q] = append(whole[q], s...)
								}
							}
							before := c.Stats().Snapshot()
							want, err := c.Alltoall(whole)
							if err != nil {
								return err
							}
							mid := c.Stats().Snapshot()
							got, err := c.AlltoallSegments(segs)
							if err != nil {
								return err
							}
							after := c.Stats().Snapshot()
							for q := range got {
								if !bytes.Equal(got[q], want[q]) {
									return fmt.Errorf("%s: rank %d got %d bytes from rank %d, want the %d of the concatenation", tc.name, c.Rank(), len(got[q]), q, len(want[q]))
								}
							}
							ws, gs := mid.Sub(before), after.Sub(mid)
							if gs.CollMsgs != ws.CollMsgs || gs.CollBytes != ws.CollBytes {
								return fmt.Errorf("%s: rank %d counted %d messages of %d bytes, the whole buffers %d of %d", tc.name, c.Rank(), gs.CollMsgs, gs.CollBytes, ws.CollMsgs, ws.CollBytes)
							}
						}
						return nil
					}()
				}(NewComm(eps[r]))
			}
			for range eps {
				if err := <-errs; err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestCollectivesSteadyStateAllocs pins what a steady p = 2 round of each
// collective allocates, all ranks together, on both transports: the messages
// go through Transport.SendSegments, and routing a whole payload there must
// not cost an allocation per message. What remains is the allreduce's
// encoded vectors and small received payloads, and the alltoall's recv
// tables.
func TestCollectivesSteadyStateAllocs(t *testing.T) {
	const p = 2
	ops := []struct {
		name string
		op   func(c *Comm, send [][]byte) error
		want map[string]float64 // by transport
	}{
		{"allreduce", func(c *Comm, _ [][]byte) error {
			_, err := c.AllreduceFloat64s([]float64{1, 2, 3, 4}, OpSum)
			return err
		}, map[string]float64{"inproc": 9, "tcp": 11}},
		{"alltoall", func(c *Comm, send [][]byte) error {
			recv, err := c.Alltoall(send)
			c.Release(recv...)
			return err
		}, map[string]float64{"inproc": 2, "tcp": 2}},
		{"send", func(c *Comm, send [][]byte) error {
			peer := 1 - c.Rank()
			if err := c.Send(peer, 7, send[peer]); err != nil {
				return err
			}
			msg, err := c.Recv(peer, 7)
			c.Release(msg.Data)
			return err
		}, map[string]float64{"inproc": 0, "tcp": 0}},
	}
	for _, tcp := range []bool{false, true} {
		for _, o := range ops {
			t.Run(transportName(tcp)+"/"+o.name, func(t *testing.T) {
				eps := openEndpoints(t, tcp, p)
				defer closeEndpoints(eps)
				start := make([]chan bool, p) // true: run a round; false: stop
				done := make(chan error, p)
				for r := range eps {
					start[r] = make(chan bool)
					go func(c *Comm) {
						send := make([][]byte, p)
						for q := range send {
							send[q] = bytes.Repeat([]byte{byte(c.Rank())}, 2<<10)
						}
						for <-start[c.Rank()] {
							done <- o.op(c, send)
						}
					}(NewComm(eps[r]))
				}
				defer func() {
					for _, ch := range start {
						ch <- false
					}
				}()
				round := func() {
					for _, ch := range start {
						ch <- true
					}
					for range start {
						if err := <-done; err != nil {
							t.Error(err)
						}
					}
				}
				for i := 0; i < 5; i++ {
					round()
				}
				allocs := testing.AllocsPerRun(200, round)
				if want := o.want[transportName(tcp)]; allocs > want {
					t.Errorf("a steady round allocates %.2f times, want at most %.0f", allocs, want)
				}
			})
		}
	}
}
