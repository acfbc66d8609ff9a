package mpi

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

func TestQueueFailWakesBlockedPop(t *testing.T) {
	q := newMatchQueue()
	errc := make(chan error, 1)
	go func() {
		_, err := q.pop(0, 1, 0)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the pop park
	want := &ErrPeerLost{Peer: 0, Cause: errors.New("boom")}
	q.fail(want)
	select {
	case err := <-errc:
		var pl *ErrPeerLost
		if !errors.As(err, &pl) || pl.Peer != 0 {
			t.Fatalf("pop returned %v, want %v", err, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop still blocked after fail")
	}
}

func TestQueuePendingDeliveredBeforeError(t *testing.T) {
	q := newMatchQueue()
	if err := q.push(Message{From: 2, Tag: 7, Data: []byte("survivor")}); err != nil {
		t.Fatal(err)
	}
	q.fail(&ErrPeerLost{Peer: 2, Cause: errors.New("died after sending")})
	// The message that made it in before the failure is still delivered...
	msg, err := q.pop(2, 7, 0)
	if err != nil {
		t.Fatalf("pending message lost to failure: %v", err)
	}
	if string(msg.Data) != "survivor" {
		t.Fatalf("payload = %q", msg.Data)
	}
	// ...and only then does the terminal error surface.
	if _, err := q.pop(2, 7, 10*time.Millisecond); err == nil {
		t.Fatal("expected terminal error after drain")
	} else {
		var pl *ErrPeerLost
		if !errors.As(err, &pl) {
			t.Fatalf("expected ErrPeerLost, got %v", err)
		}
	}
}

func TestQueueFirstFailureWins(t *testing.T) {
	q := newMatchQueue()
	q.fail(&ErrPeerLost{Peer: 1, Cause: errors.New("first")})
	q.fail(&ErrPeerLost{Peer: 2, Cause: errors.New("second")})
	_, err := q.pop(AnySource, AnyTag, 0)
	var pl *ErrPeerLost
	if !errors.As(err, &pl) || pl.Peer != 1 {
		t.Fatalf("err = %v, want first failure (peer 1)", err)
	}
}

func TestQueuePopTimeout(t *testing.T) {
	q := newMatchQueue()
	start := time.Now()
	_, err := q.pop(0, 1, 50*time.Millisecond)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("timeout fired after %v", elapsed)
	}
}

func TestQueueDepartFailsOnlyThatPeer(t *testing.T) {
	q := newMatchQueue()
	q.depart(3, &ErrPeerLost{Peer: 3, Cause: errDeparted})
	// Receives targeting the departed peer fail...
	var pl *ErrPeerLost
	if _, err := q.pop(3, 0, 0); !errors.As(err, &pl) || pl.Peer != 3 {
		t.Fatalf("pop(departed) = %v, want ErrPeerLost{3}", err)
	}
	// ...but traffic from the living keeps flowing.
	if err := q.push(Message{From: 1, Tag: 0, Data: nil}); err != nil {
		t.Fatal(err)
	}
	if msg, err := q.pop(1, 0, 0); err != nil || msg.From != 1 {
		t.Fatalf("pop(live peer) = %v, %v", msg, err)
	}
}

// fakeWireEndpoint builds a tcpEndpoint whose single peer connection is one
// end of a net.Pipe, so tests can speak the raw frame protocol to it.
func fakeWireEndpoint() (*tcpEndpoint, net.Conn) {
	client, server := net.Pipe()
	ep := &tcpEndpoint{rank: 1, size: 2, queue: newMatchQueue(), writers: make([]*tcpWriter, 2)}
	ep.wg.Add(1)
	go ep.readLoop(0, server)
	return ep, client
}

func wireFrame(tag int32, payload []byte) []byte {
	frame := make([]byte, tcpHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(tag))
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
	copy(frame[tcpHeaderSize:], payload)
	return frame
}

func TestTCPOversizedFramePoisons(t *testing.T) {
	ep, wire := fakeWireEndpoint()
	defer ep.Close()
	defer wire.Close()
	bad := make([]byte, tcpHeaderSize)
	binary.LittleEndian.PutUint32(bad[0:4], 0)
	binary.LittleEndian.PutUint32(bad[4:8], uint32(maxTCPFrame+1))
	go wire.Write(bad)
	_, err := ep.RecvTimeout(0, 0, 2*time.Second)
	var pl *ErrPeerLost
	if !errors.As(err, &pl) || pl.Peer != 0 {
		t.Fatalf("err = %v, want ErrPeerLost{0}", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "exceeds limit") {
		t.Fatalf("cause dropped from error: %v", msg)
	}
}

func TestTCPTruncatedFramePoisons(t *testing.T) {
	ep, wire := fakeWireEndpoint()
	defer ep.Close()
	go func() {
		frame := wireFrame(5, []byte("full payload"))
		wire.Write(frame[:len(frame)-4]) // cut the payload short
		wire.Close()
	}()
	_, err := ep.RecvTimeout(0, 5, 2*time.Second)
	var pl *ErrPeerLost
	if !errors.As(err, &pl) || pl.Peer != 0 {
		t.Fatalf("err = %v, want ErrPeerLost{0}", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "truncated frame") {
		t.Fatalf("cause dropped from error: %v", msg)
	}
}

func TestTCPEOFWithoutGoodbyePoisons(t *testing.T) {
	ep, wire := fakeWireEndpoint()
	defer ep.Close()
	go func() {
		wire.Write(wireFrame(1, []byte("last words")))
		wire.Close() // crash: no goodbye frame
	}()
	// The message sent before the crash is still delivered...
	msg, err := ep.RecvTimeout(0, 1, 2*time.Second)
	if err != nil || string(msg.Data) != "last words" {
		t.Fatalf("pre-crash message lost: %v, %v", msg, err)
	}
	// ...then the unexplained EOF is a peer loss.
	_, err = ep.RecvTimeout(0, 1, 2*time.Second)
	var pl *ErrPeerLost
	if !errors.As(err, &pl) || pl.Peer != 0 {
		t.Fatalf("err = %v, want ErrPeerLost{0}", err)
	}
}

func TestTCPGoodbyeIsGracefulDeparture(t *testing.T) {
	ep, wire := fakeWireEndpoint()
	defer ep.Close()
	go func() {
		wire.Write(wireFrame(1, []byte("final message")))
		wire.Write(wireFrame(goodbyeTag, nil))
		wire.Close()
	}()
	msg, err := ep.RecvTimeout(0, 1, 2*time.Second)
	if err != nil || string(msg.Data) != "final message" {
		t.Fatalf("final message lost: %v, %v", msg, err)
	}
	// A further receive from the departed peer fails with ErrPeerLost...
	_, err = ep.RecvTimeout(0, 1, 2*time.Second)
	var pl *ErrPeerLost
	if !errors.As(err, &pl) || pl.Peer != 0 {
		t.Fatalf("err = %v, want departed ErrPeerLost{0}", err)
	}
	// ...but the endpoint is not poisoned: a self-send still flows.
	if err := ep.Send(1, 9, []byte("alive")); err != nil {
		t.Fatalf("endpoint poisoned by graceful departure: %v", err)
	}
	if msg, err := ep.RecvTimeout(1, 9, 2*time.Second); err != nil || string(msg.Data) != "alive" {
		t.Fatalf("self traffic broken after departure: %v, %v", msg, err)
	}
}

// TestWriterEnqueueFailsFastAfterDeath floods a writer whose connection is
// already dead with more frames than its channel holds (the original
// tcp.go:92 hang). No enqueue may block, and once the drain goroutine has met
// the dead pipe every enqueue returns the write error. Until then an enqueue
// may still succeed — the flood fits the writer's 64 KiB buffer, which is
// flushed only when the channel runs empty — so the test waits for w.done
// before it demands errors.
func TestWriterEnqueueFailsFastAfterDeath(t *testing.T) {
	client, server := net.Pipe()
	server.Close() // writes fail immediately
	w := newTCPWriter(client, nil, nil)
	defer client.Close()

	frame := wireFrame(0, []byte("doomed"))
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 0; i < 4096; i++ { // 4x the channel capacity
			w.enqueue(frame) //nolint:errcheck // may land before the first flush
		}
		<-w.done
		for i := 0; i < 4096; i++ {
			if err := w.enqueue(frame); err == nil {
				t.Errorf("enqueue %d succeeded on a writer that has failed", i)
				return
			}
		}
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("enqueue blocked on a dead writer, or the writer never noticed the dead connection")
	}
}
