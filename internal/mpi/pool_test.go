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
