package coord

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func serve(t testing.TB, cfg ServerConfig) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// joinAll runs size concurrent joins for one epoch and returns the worlds.
func joinAll(t testing.TB, coordAddr, job string, epoch, size int) []World {
	t.Helper()
	worlds := make([]World, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			worlds[r], errs[r] = Join(JoinConfig{
				Coord: coordAddr, Job: job, Epoch: epoch, Rank: r, Size: size,
				Addr: fmt.Sprintf("10.0.0.%d:700%d", r, r), Deadline: 10 * time.Second,
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join: %v", r, err)
		}
	}
	return worlds
}

func TestJoinBarrierSealsMembershipAndGeneration(t *testing.T) {
	s := serve(t, ServerConfig{GenBase: 100})
	worlds := joinAll(t, s.Addr(), "j", 1, 4)
	for r, w := range worlds {
		if w.Gen != 101 {
			t.Fatalf("rank %d generation = %d, want 101 (GenBase+1)", r, w.Gen)
		}
		if len(w.Addrs) != 4 {
			t.Fatalf("rank %d got %d addrs", r, len(w.Addrs))
		}
		for i, addr := range w.Addrs {
			if want := fmt.Sprintf("10.0.0.%d:700%d", i, i); addr != want {
				t.Fatalf("rank %d addrs[%d] = %q, want %q", r, i, addr, want)
			}
		}
		if w.LeaseTTL <= 0 {
			t.Fatalf("rank %d lease TTL = %v", r, w.LeaseTTL)
		}
	}

	// Re-joining the sealed epoch replays the world idempotently (a rank
	// whose response was lost must be able to ask again).
	w, err := Join(JoinConfig{Coord: s.Addr(), Job: "j", Epoch: 1, Rank: 2, Size: 4, Addr: "x", Deadline: 2 * time.Second})
	if err != nil || w.Gen != 101 {
		t.Fatalf("sealed-epoch replay: world %+v err %v", w, err)
	}
}

func TestRelaunchBumpsGenerationAndFencesStaleEpoch(t *testing.T) {
	s := serve(t, ServerConfig{})
	w1 := joinAll(t, s.Addr(), "j", 1, 2)
	w2 := joinAll(t, s.Addr(), "j", 2, 2)
	if w2[0].Gen <= w1[0].Gen {
		t.Fatalf("relaunch generation %d not above %d", w2[0].Gen, w1[0].Gen)
	}

	// A stale rank re-joining the superseded epoch is fenced, typed.
	_, err := Join(JoinConfig{Coord: s.Addr(), Job: "j", Epoch: 1, Rank: 0, Size: 2, Addr: "x", Deadline: 2 * time.Second})
	var fe *FencedError
	if !errors.As(err, &fe) {
		t.Fatalf("stale-epoch join error = %v, want *FencedError", err)
	}
	if fe.Current != w2[0].Gen {
		t.Fatalf("fenced error current = %d, want %d", fe.Current, w2[0].Gen)
	}
}

func TestHeartbeatFencingPoisonsStaleSession(t *testing.T) {
	s := serve(t, ServerConfig{})
	w1 := joinAll(t, s.Addr(), "j", 1, 2)

	fenced := make(chan error, 1)
	sess := StartSession(SessionConfig{
		Coord: s.Addr(), Job: "j", Gen: w1[0].Gen, Rank: 0,
		Interval: 20 * time.Millisecond,
		OnFenced: func(err error) { fenced <- err },
	})
	defer sess.Close()

	// The live generation heartbeats cleanly for a while.
	select {
	case err := <-fenced:
		t.Fatalf("live session fenced prematurely: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	// The supervisor relaunches the world: generation bumps, the old
	// session's next heartbeat is fenced with a typed error.
	w2 := joinAll(t, s.Addr(), "j", 2, 2)
	select {
	case err := <-fenced:
		var fe *FencedError
		if !errors.As(err, &fe) {
			t.Fatalf("fencing callback error = %v, want *FencedError", err)
		}
		if fe.Gen != w1[0].Gen || fe.Current != w2[0].Gen {
			t.Fatalf("fenced %d by %d, want %d by %d", fe.Gen, fe.Current, w1[0].Gen, w2[0].Gen)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stale session never fenced")
	}
	if sess.Err() == nil {
		t.Fatal("session Err() nil after fencing")
	}
}

func TestJoinRetriesThroughCoordinatorRestart(t *testing.T) {
	// Satellite: mid-registration ranks must survive the coordinator dying
	// and returning — they retry with backoff and converge once it is back.
	// Reserve a port so the reborn coordinator reuses the address the ranks
	// were given.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	const size = 3
	worlds := make([]World, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			worlds[r], errs[r] = Join(JoinConfig{
				Coord: addr, Job: "j", Epoch: 1, Rank: r, Size: size,
				Addr: fmt.Sprintf("a%d", r), Deadline: 15 * time.Second,
				DialTimeout: 200 * time.Millisecond,
			})
		}(r)
	}

	// Let the ranks accumulate dial failures, then bring the coordinator up.
	time.Sleep(300 * time.Millisecond)
	s, err := Serve(addr, ServerConfig{GenBase: 7})
	if err != nil {
		t.Fatalf("late serve: %v", err)
	}
	defer s.Close()

	wg.Wait()
	for r := 0; r < size; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d join after restart: %v", r, errs[r])
		}
		if worlds[r].Gen != 8 {
			t.Fatalf("rank %d generation = %d, want 8", r, worlds[r].Gen)
		}
	}
}

func TestJoinBarrierTimeoutIsRetryable(t *testing.T) {
	s := serve(t, ServerConfig{JoinTimeout: 100 * time.Millisecond})
	// One rank of a 2-world joins; the barrier expires; the rank's retry
	// loop keeps going until its own deadline.
	start := time.Now()
	_, err := Join(JoinConfig{Coord: s.Addr(), Job: "j", Epoch: 1, Rank: 0, Size: 2, Addr: "a", Deadline: 500 * time.Millisecond})
	if err == nil {
		t.Fatal("lone join of a 2-world succeeded")
	}
	var fe *FencedError
	if errors.As(err, &fe) {
		t.Fatalf("barrier timeout surfaced as fencing: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 400*time.Millisecond {
		t.Fatalf("join gave up after %v without exhausting its deadline", elapsed)
	}
}

func TestJoinConflictsAreTerminal(t *testing.T) {
	s := serve(t, ServerConfig{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		Join(JoinConfig{Coord: s.Addr(), Job: "j", Epoch: 1, Rank: 0, Size: 3, Addr: "a0", Deadline: 5 * time.Second})
	}()
	time.Sleep(50 * time.Millisecond)

	// Size disagreement is a configuration bug, not a transient: it must
	// fail fast instead of burning the retry budget.
	start := time.Now()
	_, err := Join(JoinConfig{Coord: s.Addr(), Job: "j", Epoch: 1, Rank: 1, Size: 4, Addr: "a1", Deadline: 10 * time.Second})
	if err == nil || time.Since(start) > 2*time.Second {
		t.Fatalf("size conflict: err %v after %v, want fast terminal error", err, time.Since(start))
	}

	// So is a duplicate rank claim from a different address.
	_, err = Join(JoinConfig{Coord: s.Addr(), Job: "j", Epoch: 1, Rank: 0, Size: 3, Addr: "imposter", Deadline: 10 * time.Second})
	if err == nil {
		t.Fatal("duplicate rank from a different address joined")
	}

	// Rank out of range is rejected before touching the barrier.
	if _, err := Join(JoinConfig{Coord: s.Addr(), Job: "j2", Epoch: 1, Rank: 5, Size: 3, Addr: "x", Deadline: 2 * time.Second}); err == nil {
		t.Fatal("out-of-range rank joined")
	}

	s.Close() // fails the waiting barrier; the goroutine's Join returns
	<-done
}

func TestAgentLeaseExpiryCondemnsHost(t *testing.T) {
	s := serve(t, ServerConfig{LeaseTTL: 150 * time.Millisecond})

	// A healthy agent pinging inside the TTL stays registered.
	healthy, err := DialAgent(AgentConfig{Coord: s.Addr(), Job: "j", Host: "h-healthy", Slots: 2, PingInterval: 30 * time.Millisecond})
	if err != nil {
		t.Fatalf("dial healthy agent: %v", err)
	}
	defer healthy.Close()

	// A silent agent: pings far apart, so its lease lapses.
	silent, err := DialAgent(AgentConfig{Coord: s.Addr(), Job: "j", Host: "h-silent", Slots: 2, PingInterval: time.Hour})
	if err != nil {
		t.Fatalf("dial silent agent: %v", err)
	}
	defer silent.Close()

	ctrl, err := DialController(s.Addr(), "j", 0)
	if err != nil {
		t.Fatalf("dial controller: %v", err)
	}
	defer ctrl.Close()

	// Drain the registration snapshot first.
	hosts := map[string]bool{}
	deadline := time.After(5 * time.Second)
	for {
		ev := nextEvent(t, ctrl, deadline)
		if ev.Kind == EventSync {
			break
		}
		if ev.Kind == EventHost {
			hosts[ev.Host] = true
		}
	}
	if !hosts["h-healthy"] || !hosts["h-silent"] {
		t.Fatalf("snapshot hosts = %v, want both", hosts)
	}

	// The coordinator condemns the silent host; the healthy one survives.
	for {
		ev := nextEvent(t, ctrl, deadline)
		if ev.Kind == EventHostLost {
			if ev.Host != "h-silent" {
				t.Fatalf("condemned host %q, want h-silent", ev.Host)
			}
			break
		}
	}
	select {
	case ev, ok := <-ctrl.Events:
		if ok && ev.Kind == EventHostLost {
			t.Fatalf("healthy host condemned too: %+v", ev)
		}
	case <-time.After(400 * time.Millisecond):
	}
}

func nextEvent(t *testing.T, c *Controller, deadline <-chan time.Time) Event {
	t.Helper()
	select {
	case ev, ok := <-c.Events:
		if !ok {
			t.Fatal("controller event stream closed")
		}
		return ev
	case <-deadline:
		t.Fatal("timed out waiting for controller event")
	}
	return Event{}
}

func TestSpawnRoutingAndExitEvents(t *testing.T) {
	s := serve(t, ServerConfig{LeaseTTL: 2 * time.Second})
	agent, err := DialAgent(AgentConfig{Coord: s.Addr(), Job: "j", Host: "h1", Slots: 4})
	if err != nil {
		t.Fatalf("dial agent: %v", err)
	}
	defer agent.Close()

	ctrl, err := DialController(s.Addr(), "j", 0)
	if err != nil {
		t.Fatalf("dial controller: %v", err)
	}
	defer ctrl.Close()
	deadline := time.After(5 * time.Second)
	for nextEvent(t, ctrl, deadline).Kind != EventSync {
	}

	// Spawn routes to the agent with argv/env intact.
	if err := ctrl.Spawn("h1", "rank-0", []string{"/bin/prog", "-rank", "0"}, "/tmp", []string{"K=V"}); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	select {
	case cmd := <-agent.Commands:
		if cmd.Kind != CmdSpawn || cmd.ID != "rank-0" || len(cmd.Argv) != 3 || cmd.Argv[0] != "/bin/prog" || len(cmd.Env) != 1 {
			t.Fatalf("agent got %+v", cmd)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("spawn never reached the agent")
	}

	// Signal routes by spawn id.
	if err := ctrl.Signal("rank-0", 15); err != nil {
		t.Fatalf("signal: %v", err)
	}
	select {
	case cmd := <-agent.Commands:
		if cmd.Kind != CmdSignal || cmd.ID != "rank-0" || cmd.Sig != 15 {
			t.Fatalf("agent got %+v", cmd)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("signal never reached the agent")
	}

	// Exit reports flow back with host attribution.
	if err := agent.ReportExit("rank-0", 3, "boom"); err != nil {
		t.Fatalf("report exit: %v", err)
	}
	ev := nextEvent(t, ctrl, deadline)
	if ev.Kind != EventExit || ev.ID != "rank-0" || ev.Code != 3 || ev.Err != "boom" || ev.Host != "h1" {
		t.Fatalf("exit event = %+v", ev)
	}

	// Spawning on an unknown host yields a synthetic exit, not silence.
	if err := ctrl.Spawn("nope", "rank-9", []string{"/bin/prog"}, "", nil); err != nil {
		t.Fatalf("spawn unknown host: %v", err)
	}
	ev = nextEvent(t, ctrl, deadline)
	if ev.Kind != EventExit || ev.ID != "rank-9" || ev.Code != -1 {
		t.Fatalf("unknown-host spawn event = %+v", ev)
	}
}

func TestAgentDeathOrphansSpawnsToController(t *testing.T) {
	s := serve(t, ServerConfig{LeaseTTL: 5 * time.Second})
	agent, err := DialAgent(AgentConfig{Coord: s.Addr(), Job: "j", Host: "h1", Slots: 4})
	if err != nil {
		t.Fatalf("dial agent: %v", err)
	}
	ctrl, err := DialController(s.Addr(), "j", 0)
	if err != nil {
		t.Fatalf("dial controller: %v", err)
	}
	defer ctrl.Close()
	deadline := time.After(5 * time.Second)
	for nextEvent(t, ctrl, deadline).Kind != EventSync {
	}

	if err := ctrl.Spawn("h1", "rank-0", []string{"/bin/prog"}, "", nil); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	<-agent.Commands

	// The agent dies (host crash): its live spawns synthesize exits and the
	// controller learns the host is gone — in that order, so the driver sees
	// every spawn resolve before re-placing.
	agent.Close()
	sawExit := false
	for {
		ev := nextEvent(t, ctrl, deadline)
		if ev.Kind == EventExit && ev.ID == "rank-0" {
			sawExit = true
		}
		if ev.Kind == EventHostLost {
			if ev.Host != "h1" {
				t.Fatalf("lost host %q, want h1", ev.Host)
			}
			break
		}
	}
	if !sawExit {
		t.Fatal("orphaned spawn produced no exit event before host-lost")
	}
}
