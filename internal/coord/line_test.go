package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// jobState is what hostile session lines must never change: the sealed
// world, the registered hosts with their slots, and the live spawns.
type jobState struct {
	World  worldState
	Hosts  map[string]int
	Spawns map[string]string
}

func snapshot(s *Server, name string) jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[name]
	st := jobState{Hosts: make(map[string]int), Spawns: maps.Clone(j.spawns)}
	if j.world != nil {
		st.World = *j.world
	}
	for h, a := range j.hosts {
		st.Hosts[h] = a.slots
	}
	return st
}

// feedSession opens a session with first, sends data as its further lines,
// then one line longer than maxLine, and waits for the coordinator to hang
// up: however data left the session, it must not buffer that line.
func feedSession(t *testing.T, addr string, first request, data, tooLong []byte) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	closed := make(chan struct{})
	go func() {
		io.Copy(io.Discard, conn) // replies, until the coordinator hangs up
		close(closed)
	}()
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	line, _ := json.Marshal(first)
	// Write errors are expected: the coordinator may hang up at any line.
	conn.Write(append(line, '\n'))
	conn.Write(data)
	conn.Write(tooLong)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s session still open after a %d-byte line", first.Op, len(tooLong))
	}
}

// FuzzCoordLine sends arbitrary bytes as the lines of a rank's heartbeat
// session and of a host agent's session to a live coordinator. It must not
// panic, must hang up on a line longer than maxLine rather than buffer it,
// and must leave the job's sealed world, hosts and spawns as they were.
func FuzzCoordLine(f *testing.F) {
	s := serve(f, ServerConfig{})
	joinAll(f, s.Addr(), "j", 1, 2)
	gen := joinAll(f, s.Addr(), "j", 2, 2)[0].Gen
	agent, err := DialAgent(AgentConfig{Coord: s.Addr(), Job: "j", Host: "h1", Slots: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(agent.Close)
	ctrl, err := DialController(s.Addr(), "j", 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(ctrl.Close)
	go func() {
		for range ctrl.Events {
		}
	}()
	if err := ctrl.Spawn("h1", "rank-0", []string{"/bin/prog"}, "", nil); err != nil {
		f.Fatal(err)
	}
	<-agent.Commands // the coordinator records a spawn before routing it
	go func() {
		for range agent.Commands {
		}
	}()
	before := snapshot(s, "j")

	beacon := func(g uint64, rank int, payload string) string {
		return fmt.Sprintf(`{"op":"heartbeat","job":"j","gen":%d,"rank":%d,"beacon":%s}`+"\n", g, rank, payload)
	}
	for _, seed := range []string{
		fmt.Sprintf(`{"op":"heartbeat","job":"j","gen":%d,"rank":1}`+"\n", gen),
		beacon(gen, 1, `{"kind":"iteration","phase":1,"q":0.5}`),
		beacon(gen-1, 1, `{"kind":"iteration"}`),
		beacon(gen+1, 0, `{}`),
		beacon(gen, 7, `{}`),
		beacon(gen, 1, `"`+strings.Repeat("x", maxBeacon)+`"`),
		`{"event":"ping"}` + "\n",
		`{"event":"exit","id":"rank-0","code":1}` + "\n",
		`{"op":"join","job":"j","epoch":9,"size":1}` + "\n",
		`{"cmd":"spawn","host":"h1","id":"rank-1","argv":["/bin/prog"]}` + "\n",
		"not json\n{}\n\n",
		`{"op":"heartbeat"` + "\n",
		`{"op":"heartbeat","job":"j"}{"op":"heartbeat","job":"j"}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	tooLong := bytes.Repeat([]byte{'x'}, maxLine+1)
	f.Fuzz(func(t *testing.T, data []byte) {
		feedSession(t, s.Addr(), request{Op: "heartbeat", Job: "j", Gen: gen, Rank: 1}, data, tooLong)
		feedSession(t, s.Addr(), request{Op: "agent", Job: "j", Host: "h-fuzz", Slots: 1}, data, tooLong)
		if after := snapshot(s, "j"); !reflect.DeepEqual(after, before) {
			t.Fatalf("session lines %q changed the job:\n before %+v\n after  %+v", data, before, after)
		}
	})
}
