package mpi

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"distlouvain/internal/coord"
)

func startCoord(t *testing.T, cfg coord.ServerConfig) *coord.Server {
	t.Helper()
	s, err := coord.Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("coord serve: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// dialCoordAll joins size ranks of one epoch concurrently.
func dialCoordAll(t *testing.T, coordAddr, job string, epoch, size int) []Transport {
	t.Helper()
	tps := make([]Transport, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tps[r], errs[r] = DialCoordWorld(CoordWorldConfig{
				Coord: coordAddr, Job: job, Epoch: epoch, Rank: r, Size: size,
				ConnectDeadline: 10 * time.Second, HeartbeatInterval: 25 * time.Millisecond,
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d DialCoordWorld: %v", r, err)
		}
	}
	return tps
}

func TestCoordWorldCollectives(t *testing.T) {
	s := startCoord(t, coord.ServerConfig{})
	const size = 4
	tps := dialCoordAll(t, s.Addr(), "j", 1, size)
	defer func() {
		for _, tp := range tps {
			tp.Close()
		}
	}()

	// Every rank bound its own listener on a distinct kernel-chosen port and
	// learned the others' through the coordinator — no address list anywhere.
	var wg sync.WaitGroup
	sums := make([]int64, size)
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := NewComm(tps[r])
			sums[r], errs[r] = c.AllreduceInt64(int64(r+1), OpSum)
		}(r)
	}
	wg.Wait()
	for r := 0; r < size; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d allreduce: %v", r, errs[r])
		}
		if sums[r] != 10 {
			t.Fatalf("rank %d sum = %d, want 10", r, sums[r])
		}
	}
	if g, ok := tps[0].(interface{ Gen() uint64 }); !ok || g.Gen() == 0 {
		t.Fatalf("coord world exposes no generation token (%v)", tps[0])
	}
}

func TestStaleRankFencedTypedNotHung(t *testing.T) {
	// The acceptance scenario: a rank cut off by a partition keeps its old
	// transport while the supervisor relaunches the world at the next epoch.
	// When the healed stale rank next touches the world, it must get a typed
	// *ErrFenced — from a blocked Recv, without any peer traffic — instead
	// of hanging.
	s := startCoord(t, coord.ServerConfig{})
	old := dialCoordAll(t, s.Addr(), "j", 1, 2)
	defer func() {
		for _, tp := range old {
			tp.Close()
		}
	}()

	recvErr := make(chan error, 1)
	go func() {
		_, err := old[0].Recv(1, 7) // nothing will ever send this
		recvErr <- err
	}()
	select {
	case err := <-recvErr:
		t.Fatalf("recv failed before fencing: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	// Supervisor relaunches: epoch 2 seals a new generation. The stale
	// generation's next heartbeat is fenced and poisons the old transport.
	fresh := dialCoordAll(t, s.Addr(), "j", 2, 2)
	defer func() {
		for _, tp := range fresh {
			tp.Close()
		}
	}()

	select {
	case err := <-recvErr:
		var fe *ErrFenced
		if !errors.As(err, &fe) {
			t.Fatalf("stale rank recv error = %v, want *ErrFenced", err)
		}
		if fe.Rank != 0 {
			t.Fatalf("fenced rank = %d, want 0", fe.Rank)
		}
		var cfe *coord.FencedError
		if !errors.As(err, &cfe) {
			t.Fatalf("fenced error carries no coordinator cause: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stale rank still blocked in Recv after fencing — the hang this PR exists to prevent")
	}

	// The new world is untouched by the stale rank's demise.
	var wg sync.WaitGroup
	for r, tp := range fresh {
		wg.Add(1)
		go func(r int, tp Transport) {
			defer wg.Done()
			if _, err := NewComm(tp).AllreduceInt64(1, OpSum); err != nil {
				t.Errorf("fresh rank %d: %v", r, err)
			}
		}(r, tp)
	}
	wg.Wait()

	// A full re-join attempt at the dead epoch is fenced typed, too.
	_, err := DialCoordWorld(CoordWorldConfig{
		Coord: s.Addr(), Job: "j", Epoch: 1, Rank: 0, Size: 2,
		ConnectDeadline: 5 * time.Second,
	})
	var cfe *coord.FencedError
	if !errors.As(err, &cfe) {
		t.Fatalf("stale-epoch rejoin error = %v, want *coord.FencedError", err)
	}
}

func TestMeshRejectsStaleFenceDialer(t *testing.T) {
	// Data-plane fencing: an acceptor mid-rendezvous refuses a dialer whose
	// token differs from its own — typed for the dialer, slot-neutral for the
	// acceptor, so the real peer can still complete the world afterwards.
	// There is one handshake, so a static world (token 0) meeting a
	// coordinator world is the same mismatch in either direction.
	const gen = 5
	cases := []struct {
		name             string
		acceptor, dialer uint64
	}{
		{"stale generation", gen, gen - 1},
		{"static dialer, coordinator acceptor", gen, 0},
		{"coordinator dialer, static acceptor", 0, gen},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addrs := freeAddrs(t, 2)
			type result struct {
				tp  Transport
				err error
			}
			r0 := make(chan result, 1)
			go func() {
				tp, err := DialTCPWorld(TCPWorldConfig{Rank: 0, Addrs: addrs, Fence: tc.acceptor, ConnectDeadline: 10 * time.Second})
				r0 <- result{tp, err}
			}()

			// The mismatched dialer must fail typed, and fast: a rejection is
			// an answer, not a silence that runs out the connect deadline.
			start := time.Now()
			strayAddrs := []string{addrs[0], freeAddrs(t, 1)[0]}
			_, err := DialTCPWorld(TCPWorldConfig{Rank: 1, Addrs: strayAddrs, Fence: tc.dialer, ConnectDeadline: 10 * time.Second})
			var fe *ErrFenced
			if !errors.As(err, &fe) {
				t.Fatalf("mismatched dialer error = %v, want *ErrFenced", err)
			}
			if fe.Fence != tc.dialer {
				t.Fatalf("fenced token = %d, want %d", fe.Fence, tc.dialer)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("rejection took %v of a 10s connect deadline", d)
			}

			// The live world still forms: the rejection consumed no accept slot.
			tp1, err := DialTCPWorld(TCPWorldConfig{Rank: 1, Addrs: addrs, Fence: tc.acceptor, ConnectDeadline: 10 * time.Second})
			if err != nil {
				t.Fatalf("real rank 1 after the rejection: %v", err)
			}
			res := <-r0
			if res.err != nil {
				t.Fatalf("rank 0: %v", res.err)
			}
			defer res.tp.Close()
			defer tp1.Close()
			// Nothing the stray wrote was parsed as a frame.
			if msg, err := res.tp.RecvTimeout(AnySource, AnyTag, 50*time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("acceptor's match queue is not empty: %+v, %v", msg, err)
			}
			if err := res.tp.SendSegments(1, 3, [][]byte{[]byte("ok")}); err != nil {
				t.Fatalf("send: %v", err)
			}
			if msg, err := tp1.Recv(0, 3); err != nil || string(msg.Data) != "ok" {
				t.Fatalf("recv: %v %q", err, msg.Data)
			}
		})
	}
}

func TestGarbageDialerDoesNotCorruptRendezvous(t *testing.T) {
	// A stray connection with a bogus handshake — an out-of-range rank, then
	// a hang-up before the fence — is dropped without consuming an accept
	// slot, and the world forms.
	addrs := freeAddrs(t, 2)
	type result struct {
		tp  Transport
		err error
	}
	r0 := make(chan result, 1)
	go func() {
		tp, err := DialTCPWorld(TCPWorldConfig{Rank: 0, Addrs: addrs, ConnectDeadline: 10 * time.Second})
		r0 <- result{tp, err}
	}()

	// Garbage: claims to be rank 9 of a 2-world, then hangs up.
	deadline := time.Now().Add(5 * time.Second)
	var garbage net.Conn
	for {
		var err error
		garbage, err = net.DialTimeout("tcp", addrs[0], time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank 0 listener never came up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var hs [4]byte
	binary.LittleEndian.PutUint32(hs[:], 9)
	garbage.Write(hs[:])
	garbage.Close()

	tp1, err := DialTCPWorld(TCPWorldConfig{Rank: 1, Addrs: addrs, ConnectDeadline: 10 * time.Second})
	if err != nil {
		t.Fatalf("rank 1: %v", err)
	}
	res := <-r0
	if res.err != nil {
		t.Fatalf("rank 0 corrupted by garbage dialer: %v", res.err)
	}
	if err := res.tp.SendSegments(1, 1, [][]byte{[]byte("x")}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := tp1.Recv(0, 1); err != nil {
		t.Fatalf("recv: %v", err)
	}
	res.tp.Close()
	tp1.Close()
}

func TestCoordRendezvousFailureNoConnLeak(t *testing.T) {
	// Companion to TestRendezvousFailureNoConnLeak for the coordinator path:
	// when the world never fills, the joiner must give up at its deadline
	// and release its mesh listener — nothing may stay accepting.
	s := startCoord(t, coord.ServerConfig{JoinTimeout: 200 * time.Millisecond})
	var advertised string
	_, err := DialCoordWorld(CoordWorldConfig{
		Coord: s.Addr(), Job: "j", Epoch: 1, Rank: 0, Size: 2,
		Advertise:       "", // default loopback listen; record via Listen below
		ConnectDeadline: 700 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("lone rank of a 2-world built a transport")
	}
	var fe *coord.FencedError
	if errors.As(err, &fe) {
		t.Fatalf("barrier starvation surfaced as fencing: %v", err)
	}

	// Bind-then-leak check: run again on a reserved port so the listener
	// address is known, and verify it is released after the failure.
	advertised = freeAddrs(t, 1)[0]
	_, err = DialCoordWorld(CoordWorldConfig{
		Coord: s.Addr(), Job: "j2", Epoch: 1, Rank: 0, Size: 2,
		Listen:          advertised,
		ConnectDeadline: 700 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("lone rank of a 2-world built a transport")
	}
	leakDeadline := time.Now().Add(3 * time.Second)
	for {
		if _, err := net.DialTimeout("tcp", advertised, 50*time.Millisecond); err != nil {
			return // listener gone
		}
		if time.Now().After(leakDeadline) {
			t.Fatal("mesh listener still accepting after failed coord rendezvous")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestAdvertiseAddr(t *testing.T) {
	bound := &net.TCPAddr{IP: net.ParseIP("127.0.0.1"), Port: 4321}
	cases := []struct {
		spec, want string
		wantErr    bool
	}{
		{"", "127.0.0.1:4321", false},
		{"10.1.2.3", "10.1.2.3:4321", false},
		{"10.1.2.3:0", "10.1.2.3:4321", false},
		{"10.1.2.3:9999", "10.1.2.3:9999", false},
		{"example.test:0", "example.test:4321", false},
		{":0", "", true},
	}
	for _, c := range cases {
		got, err := advertiseAddr(c.spec, bound)
		if c.wantErr {
			if err == nil {
				t.Fatalf("spec %q: no error (got %q)", c.spec, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Fatalf("spec %q: got %q err %v, want %q", c.spec, got, err, c.want)
		}
	}
	wild := &net.TCPAddr{IP: net.IPv4zero, Port: 9}
	if _, err := advertiseAddr("", wild); err == nil {
		t.Fatal("wildcard bound address with no advertise spec must error")
	}
}
