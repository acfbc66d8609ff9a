package chaosnet

import (
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"distlouvain/internal/mpi"
)

// proxiedPair builds a 2-rank TCP world where rank 0's listener sits behind
// a chaos proxy: rank 1 (the dialer, being the higher rank) reaches rank 0
// only through the proxy, so both directions of the (0,1) link are subject
// to fault injection. Returns the transports and the proxy.
func proxiedPair(t *testing.T, fence uint64) (tp0, tp1 mpi.Transport, px *Proxy) {
	t.Helper()
	backendLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	backend := backendLn.Addr().String()
	backendLn.Close()

	px, err = New("127.0.0.1:0", backend, Options{})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	t.Cleanup(px.Close)

	// Rank 0 listens privately; rank 1 is told the proxy's address for it.
	addrsFor0 := []string{backend, "unused-rank1"}
	addrsFor1 := []string{px.Addr(), freeAddr(t)}

	var wg sync.WaitGroup
	var err0 error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tp0, err0 = mpi.DialTCPWorld(mpi.TCPWorldConfig{Rank: 0, Addrs: addrsFor0, Fence: fence, ConnectDeadline: 10 * time.Second})
	}()
	tp1, err = mpi.DialTCPWorld(mpi.TCPWorldConfig{Rank: 1, Addrs: addrsFor1, Fence: fence, ConnectDeadline: 10 * time.Second})
	wg.Wait()
	if err0 != nil || err != nil {
		t.Fatalf("rendezvous through proxy: rank0 %v, rank1 %v", err0, err)
	}
	t.Cleanup(func() { tp0.Close(); tp1.Close() })
	return tp0, tp1, px
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestProxyIsTransparent(t *testing.T) {
	tp0, tp1, _ := proxiedPair(t, 0)
	for i := 0; i < 50; i++ {
		if err := tp1.SendSegments(0, i, [][]byte{{byte(i)}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < 50; i++ {
		msg, err := tp0.RecvTimeout(1, i, 0)
		if err != nil || len(msg.Data) != 1 || msg.Data[0] != byte(i) {
			t.Fatalf("recv %d: %v %v", i, err, msg.Data)
		}
	}
	// And the reverse direction.
	if err := tp0.SendSegments(1, 99, [][]byte{[]byte("pong")}); err != nil {
		t.Fatal(err)
	}
	if msg, err := tp1.RecvTimeout(0, 99, 0); err != nil || string(msg.Data) != "pong" {
		t.Fatalf("reverse recv: %v %q", err, msg.Data)
	}
}

func TestProxyFencedHandshakePassesThrough(t *testing.T) {
	tp0, tp1, _ := proxiedPair(t, 42)
	if err := tp1.SendSegments(0, 1, [][]byte{[]byte("fenced world")}); err != nil {
		t.Fatal(err)
	}
	if msg, err := tp0.RecvTimeout(1, 1, 0); err != nil || string(msg.Data) != "fenced world" {
		t.Fatalf("recv: %v %q", err, msg.Data)
	}
}

func TestAsymmetricPartitionAndHeal(t *testing.T) {
	tp0, tp1, px := proxiedPair(t, 0)

	// Partition only DirIn: rank 0 goes deaf to rank 1 but can still talk.
	px.Partition(1, DirIn, true)
	if err := tp1.SendSegments(0, 5, [][]byte{[]byte("lost")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tp0.RecvTimeout(1, 5, 300*time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("recv during partition = %v, want deadline exceeded", err)
	}
	// The healthy direction still flows — the asymmetry is real.
	if err := tp0.SendSegments(1, 6, [][]byte{[]byte("still talking")}); err != nil {
		t.Fatal(err)
	}
	if msg, err := tp1.RecvTimeout(0, 6, 0); err != nil || string(msg.Data) != "still talking" {
		t.Fatalf("healthy direction: %v %q", err, msg.Data)
	}

	// Heal: frames dropped during the partition are gone (silence, not a
	// queue), but new traffic flows again on the same connection.
	px.Partition(1, DirIn, false)
	if _, err := tp0.RecvTimeout(1, 5, 200*time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("partition buffered instead of dropping: %v", err)
	}
	if err := tp1.SendSegments(0, 7, [][]byte{[]byte("healed")}); err != nil {
		t.Fatal(err)
	}
	if msg, err := tp0.RecvTimeout(1, 7, 0); err != nil || string(msg.Data) != "healed" {
		t.Fatalf("post-heal recv: %v %q", err, msg.Data)
	}
}

func TestSlowLinkPacesFrames(t *testing.T) {
	tp0, tp1, px := proxiedPair(t, 0)
	// 10 KiB/s: a ~2 KiB frame should take ~200ms.
	px.SlowLink(1, DirIn, 10*1024)
	payload := make([]byte, 2048)
	start := time.Now()
	tp1.SendSegments(0, 1, [][]byte{payload})
	if msg, err := tp0.RecvTimeout(1, 1, 0); err != nil || len(msg.Data) != len(payload) {
		t.Fatalf("slow-link recv: %v len=%d", err, len(msg.Data))
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("slow link delivered a 2KiB frame in %v", elapsed)
	}
	px.SlowLink(1, DirIn, 0)
	start = time.Now()
	tp1.SendSegments(0, 2, [][]byte{payload})
	if _, err := tp0.RecvTimeout(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("clearing slow link left pacing in place (%v)", elapsed)
	}
}
