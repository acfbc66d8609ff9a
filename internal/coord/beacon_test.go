package coord

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// rawSession is a heartbeat session driven line by line, so a test decides
// exactly which lines the coordinator has read before it looks.
type rawSession struct {
	t    *testing.T
	conn net.Conn
	lr   *lineReader
	hb   request
}

func dialRaw(t *testing.T, addr string, hb request) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawSession{t: t, conn: conn, lr: newLineReader(conn), hb: hb}
}

func (r *rawSession) send(line request) {
	r.t.Helper()
	if err := json.NewEncoder(r.conn).Encode(line); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rawSession) beacon(payload string) {
	r.t.Helper()
	line := r.hb
	line.Beacon = json.RawMessage(payload)
	r.send(line)
}

// heartbeat sends a heartbeat and returns its reply. The coordinator reads a
// session's lines in order, so every earlier beacon has been handled by then.
func (r *rawSession) heartbeat() response {
	r.t.Helper()
	r.send(r.hb)
	var resp response
	if err := r.lr.decode(&resp); err != nil {
		r.t.Fatalf("heartbeat reply: %v", err)
	}
	return resp
}

// attach dials a controller for job and drains its registration snapshot.
func attach(t *testing.T, addr, job string) *Controller {
	t.Helper()
	ctrl, err := DialController(addr, job, 0)
	if err != nil {
		t.Fatalf("dial controller: %v", err)
	}
	t.Cleanup(ctrl.Close)
	deadline := time.After(5 * time.Second)
	for nextEvent(t, ctrl, deadline).Kind != EventSync {
	}
	return ctrl
}

func TestBeaconsReachControllerInOrder(t *testing.T) {
	s := serve(t, ServerConfig{})
	ctrl := attach(t, s.Addr(), "j")
	w := joinAll(t, s.Addr(), "j", 3, 2)
	sess := StartSession(SessionConfig{Coord: s.Addr(), Job: "j", Gen: w[1].Gen, Rank: 1, Interval: 20 * time.Millisecond})
	defer sess.Close()

	const n = 20
	for i := 0; i < n; i++ {
		sess.Beacon([]byte(fmt.Sprintf(`{"seq":%d}`, i)))
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		ev := nextEvent(t, ctrl, deadline)
		want := fmt.Sprintf(`{"seq":%d}`, i)
		if ev.Kind != EventBeacon || ev.Rank != 1 || ev.Epoch != 3 || string(ev.Beacon) != want {
			t.Fatalf("event %d = %+v with payload %s, want a rank 1, epoch 3 beacon %s", i, ev, ev.Beacon, want)
		}
	}
}

func TestBeaconDroppedWithoutController(t *testing.T) {
	s := serve(t, ServerConfig{})
	w := joinAll(t, s.Addr(), "j", 1, 2)
	r := dialRaw(t, s.Addr(), request{Op: "heartbeat", Job: "j", Gen: w[0].Gen, Rank: 0})
	if resp := r.heartbeat(); !resp.OK {
		t.Fatalf("heartbeat = %+v", resp)
	}
	r.beacon(`{"seq":1}`)
	if resp := r.heartbeat(); !resp.OK {
		t.Fatalf("heartbeat after an unattended beacon = %+v", resp)
	}

	ctrl := attach(t, s.Addr(), "j")
	r.beacon(`{"seq":2}`)
	r.heartbeat()
	ev := nextEvent(t, ctrl, time.After(5*time.Second))
	if ev.Kind != EventBeacon || string(ev.Beacon) != `{"seq":2}` {
		t.Fatalf("first controller event = %+v with payload %s, want beacon seq 2 (seq 1 had no controller)", ev, ev.Beacon)
	}
}

func TestStaleBeaconFencedAndHungUp(t *testing.T) {
	s := serve(t, ServerConfig{})
	ctrl := attach(t, s.Addr(), "j")
	w1 := joinAll(t, s.Addr(), "j", 1, 2)
	r := dialRaw(t, s.Addr(), request{Op: "heartbeat", Job: "j", Gen: w1[0].Gen, Rank: 0})
	if resp := r.heartbeat(); !resp.OK {
		t.Fatalf("heartbeat = %+v", resp)
	}

	w2 := joinAll(t, s.Addr(), "j", 2, 2)
	r.beacon(`{"seq":1}`)
	var resp response
	if err := r.lr.decode(&resp); err != nil {
		t.Fatalf("no reply to a fenced beacon: %v", err)
	}
	if resp.Code != codeFenced || resp.Gen != w2[0].Gen {
		t.Fatalf("reply to a generation-%d beacon = %+v, want fenced by %d", w1[0].Gen, resp, w2[0].Gen)
	}
	if err := r.lr.decode(&resp); err != io.EOF {
		t.Fatalf("after fencing the session read %+v, %v; want it hung up (EOF)", resp, err)
	}

	// The fenced beacon never reached the controller: the next beacon it
	// sees is a current rank's, sent after the fenced one was handled.
	live := dialRaw(t, s.Addr(), request{Op: "heartbeat", Job: "j", Gen: w2[1].Gen, Rank: 1})
	live.beacon(`{"seq":2}`)
	live.heartbeat()
	ev := nextEvent(t, ctrl, time.After(5*time.Second))
	if ev.Kind != EventBeacon || string(ev.Beacon) != `{"seq":2}` {
		t.Fatalf("first controller event = %+v with payload %s, want the current generation's beacon seq 2", ev, ev.Beacon)
	}
}

// TestSessionBeaconNeverBlocks: Config.Progress runs on the rank's own
// goroutine, so a beacon must return at once whether the coordinator is
// gone or accepts and never answers.
func TestSessionBeaconNeverBlocks(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	silent, err := net.Listen("tcp", "127.0.0.1:0") // never accepts; the kernel completes dials
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	for name, addr := range map[string]string{"down": dead, "silent": silent.Addr().String()} {
		sess := StartSession(SessionConfig{Coord: addr, Job: "j", Gen: 1, Interval: 20 * time.Millisecond})
		start := time.Now()
		for i := 0; i < 10000; i++ {
			sess.Beacon([]byte(`{"kind":"iteration"}`))
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("coordinator %s: 10000 beacons took %v", name, d)
		}
		sess.Close()
	}
}
