package main

import (
	"fmt"
	"os"
	"testing"

	"distlouvain/internal/coord"
	"distlouvain/internal/core"
	"distlouvain/internal/supervisor"
)

// TestRouteBeaconsOnlyToCurrentEpoch: a rank of attempt k keeps beaconing
// until attempt k+1's world seals and fences it, and the coordinator
// forwards its beacons meanwhile. None may reach attempt k+1's supervisor
// sink or its -chaos hook.
func TestRouteBeaconsOnlyToCurrentEpoch(t *testing.T) {
	var sunk, injected []supervisor.Beacon
	var attempts []int
	l := &remoteLauncher{
		placeLogf: func(string, ...any) {},
		inject: func(attempt int, b supervisor.Beacon) supervisor.Fault {
			attempts = append(attempts, attempt)
			injected = append(injected, b)
			return supervisor.FaultNone
		},
	}
	l.cur = &remoteAttempt{
		l: l, epoch: 2, // attempt 1
		beacons: func(b supervisor.Beacon) { sunk = append(sunk, b) },
		live:    map[string]int{}, done: make(chan struct{}),
	}
	events := make(chan coord.Event)
	routed := make(chan struct{})
	go func() {
		l.route(&coord.Controller{Events: events}, make(chan struct{}))
		close(routed)
	}()
	for _, ev := range []struct {
		epoch, rank int
		payload     string
	}{
		{1, 0, `{"rank":0,"kind":"iteration","phase":3}`}, // attempt 0, not yet fenced
		{2, 1, `{"rank":0,"kind":"phase-start","phase":1}`},
		{1, 1, `{"rank":1,"kind":"iteration","phase":4}`},
		{2, 0, `not json`},
	} {
		events <- coord.Event{Kind: coord.EventBeacon, Epoch: ev.epoch, Rank: ev.rank, Beacon: []byte(ev.payload)}
	}
	close(events)
	<-routed

	// The rank is the coordinator's tag, not the payload's claim.
	want := fmt.Sprint([]supervisor.Beacon{{Rank: 1, Kind: core.ProgressPhaseStart, Phase: 1}})
	if got := fmt.Sprint(sunk); got != want {
		t.Errorf("supervisor sink got %s, want %s", got, want)
	}
	if got := fmt.Sprint(injected); got != want || fmt.Sprint(attempts) != "[1]" {
		t.Errorf("-chaos hook saw %s on attempts %v, want %s on [1]", got, attempts, want)
	}
}

// TestRendezvousFailureExitCodes pins a rank's exit when it cannot join its
// world: retryable (3) when a launcher spawned it, since a sibling dying
// during startup is the launcher's to retry; fatal (1) when launched by
// hand; and fatal whenever it was fenced, launched or not.
func TestRendezvousFailureExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin, graph, _ := buildBinaryAndGraph(t)
	srv, err := coord.Serve("127.0.0.1:0", coord.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const job = "rendezvous"
	// Seal epoch 2 at size 2.
	go coord.Join(coord.JoinConfig{Coord: srv.Addr(), Job: job, Epoch: 2, Rank: 1, Size: 2, Addr: "127.0.0.1:1001"})
	if _, err := coord.Join(coord.JoinConfig{Coord: srv.Addr(), Job: job, Epoch: 2, Rank: 0, Size: 2, Addr: "127.0.0.1:1000"}); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name            string
		launched        bool
		epoch, np, want int
	}{
		{"launched, size conflict", true, 2, 3, exitRetryable},
		{"by hand, size conflict", false, 2, 3, 1},
		{"launched, fenced", true, 1, 2, 1},
	} {
		cmd := coordRank(bin, srv.Addr(), job, c.epoch, 0, c.np, nil, graph)
		cmd.Env = os.Environ()
		if c.launched {
			cmd.Env = append(cmd.Env, envLaunched+"=1")
		}
		log := &syncBuf{}
		cmd.Stdout, cmd.Stderr = log, log
		wantExit(t, c.name, cmd.Run(), log, c.want)
	}
}
