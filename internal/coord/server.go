package coord

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"
)

// ServerConfig tunes the coordinator. The zero value selects production
// defaults; tests shrink the lease and barrier timeouts.
type ServerConfig struct {
	// LeaseTTL is how long a host agent may stay silent before the
	// coordinator condemns it and tells the controller. Default 5s.
	LeaseTTL time.Duration
	// JoinTimeout bounds an incomplete join barrier: if the world does not
	// fill within it, every waiting rank gets a retryable error and the
	// barrier resets. Default 30s.
	JoinTimeout time.Duration
	// GenBase seeds the generation counter. A coordinator that restarts
	// loses its in-memory counter; operators who need fencing to survive a
	// coordinator restart derive GenBase from a clock so a reborn
	// coordinator never re-issues an old token (cmd/dcoord does this).
	GenBase uint64
	// Logf, when non-nil, receives one line per membership change and
	// condemnation for operator visibility.
	Logf func(format string, args ...any)
}

func (c *ServerConfig) fill() {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 5 * time.Second
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = 30 * time.Second
	}
}

// Server is the rendezvous coordinator. One server hosts any number of
// independent jobs.
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	mu     sync.Mutex
	gen    uint64 // last issued generation, monotonic across every job
	jobs   map[string]*job
	conns  map[net.Conn]struct{}
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// job is one named world: at most one sealed membership, at most one barrier
// in progress, plus the host-agent registry for WAN supervision.
type job struct {
	name    string
	world   *worldState
	barrier *barrier
	hosts   map[string]*agentConn
	spawns  map[string]string // live spawn id -> host
	ctrl    *ctrlConn
}

type worldState struct {
	gen   uint64
	epoch int
	addrs []string
}

// barrier collects joiners for one (job, epoch) until size of them have
// registered. done closes on seal or failure; gen/err are valid after.
type barrier struct {
	epoch  int
	size   int
	addrs  []string
	joined int
	done   chan struct{}
	gen    uint64
	err    *response // terminal failure to report to every waiter
	timer  *time.Timer
}

// agentConn is one registered host agent. writes are serialized by wmu so
// the controller router and the reaper never interleave JSON lines.
type agentConn struct {
	host     string
	slots    int
	conn     net.Conn
	enc      *json.Encoder
	wmu      sync.Mutex
	lastPing time.Time
}

func (a *agentConn) send(v any) error {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	a.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	return a.enc.Encode(v)
}

// ctrlConn is the attached controller for a job.
type ctrlConn struct {
	conn net.Conn
	enc  *json.Encoder
	wmu  sync.Mutex
}

func (c *ctrlConn) send(v any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	return c.enc.Encode(v)
}

// Serve starts a coordinator listening on addr ("host:port", port may be 0).
func Serve(addr string, cfg ServerConfig) (*Server, error) {
	cfg.fill()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("coord: listen %s: %w", addr, err)
	}
	s := &Server{
		cfg:   cfg,
		ln:    ln,
		jobs:  make(map[string]*job),
		conns: make(map[net.Conn]struct{}),
		stop:  make(chan struct{}),
		gen:   cfg.GenBase,
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.reapLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Close shuts the coordinator down: the listener and every live session
// close, and in-progress barriers fail with a retryable error so waiting
// ranks fall back to their dial-retry loops.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stop)
	for conn := range s.conns {
		conn.Close()
	}
	for _, j := range s.jobs {
		if j.barrier != nil {
			j.barrier.failLocked(&response{Code: codeRetry, Error: "coordinator shut down"})
			j.barrier = nil
		}
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	lr := newLineReader(conn)
	var req request
	if err := lr.decode(&req); err != nil {
		return
	}
	switch req.Op {
	case "join":
		s.handleJoin(conn, req)
	case "heartbeat":
		s.handleBeats(conn, lr, req)
	case "agent":
		s.handleAgent(conn, lr, req)
	case "control":
		s.handleControl(conn, lr, req)
	default:
		writeLine(conn, response{Code: codeConflict, Error: fmt.Sprintf("unknown op %q", req.Op)})
	}
}

func writeLine(conn net.Conn, v any) error {
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	return json.NewEncoder(conn).Encode(v)
}

func (s *Server) job(name string) *job {
	j := s.jobs[name]
	if j == nil {
		j = &job{name: name, hosts: make(map[string]*agentConn), spawns: make(map[string]string)}
		s.jobs[name] = j
	}
	return j
}

// failLocked terminates a barrier with resp; callers hold s.mu.
func (b *barrier) failLocked(resp *response) {
	if b.err == nil {
		b.err = resp
	}
	if b.timer != nil {
		b.timer.Stop()
	}
	select {
	case <-b.done:
	default:
		close(b.done)
	}
}

// --- join barrier -----------------------------------------------------------

func (s *Server) handleJoin(conn net.Conn, req request) {
	b, resp := s.joinBarrier(req)
	if b == nil {
		writeLine(conn, resp)
		return
	}
	<-b.done
	s.mu.Lock()
	if b.err != nil {
		resp = *b.err
		s.mu.Unlock()
		writeLine(conn, resp)
		return
	}
	resp = response{OK: true, Gen: b.gen, Addrs: append([]string(nil), b.addrs...), LeaseMS: s.cfg.LeaseTTL.Milliseconds()}
	s.mu.Unlock()
	writeLine(conn, resp)
}

// joinBarrier registers one joiner. It returns either a barrier to wait on
// or an immediate response (sealed world replay, fencing, or a hard error).
func (s *Server) joinBarrier(req request) (*barrier, response) {
	if req.Size <= 0 || req.Rank < 0 || req.Rank >= req.Size {
		return nil, response{Code: codeConflict, Error: fmt.Sprintf("rank %d out of range for size %d", req.Rank, req.Size)}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, response{Code: codeRetry, Error: "coordinator shut down"}
	}
	j := s.job(req.Job)

	if j.world != nil {
		if req.Epoch < j.world.epoch {
			return nil, response{Code: codeFenced, Gen: j.world.gen, Error: fmt.Sprintf("epoch %d superseded by epoch %d", req.Epoch, j.world.epoch)}
		}
		if req.Epoch == j.world.epoch {
			// Idempotent replay: the rank joined this epoch but lost the
			// response (or is retrying after a coordinator hiccup).
			if req.Size != len(j.world.addrs) {
				return nil, response{Code: codeConflict, Error: fmt.Sprintf("size %d conflicts with sealed size %d", req.Size, len(j.world.addrs))}
			}
			return nil, response{OK: true, Gen: j.world.gen, Addrs: append([]string(nil), j.world.addrs...), LeaseMS: s.cfg.LeaseTTL.Milliseconds()}
		}
	}

	if j.barrier != nil {
		switch {
		case req.Epoch < j.barrier.epoch:
			return nil, response{Code: codeFenced, Error: fmt.Sprintf("epoch %d superseded by forming epoch %d", req.Epoch, j.barrier.epoch)}
		case req.Epoch > j.barrier.epoch:
			// A newer incarnation started forming: the old barrier can never
			// complete (its epoch is doomed), so fail its waiters fenced.
			j.barrier.failLocked(&response{Code: codeFenced, Error: fmt.Sprintf("epoch %d superseded by forming epoch %d", j.barrier.epoch, req.Epoch)})
			j.barrier = nil
		default:
			if req.Size != j.barrier.size {
				return nil, response{Code: codeConflict, Error: fmt.Sprintf("size %d conflicts with barrier size %d", req.Size, j.barrier.size)}
			}
		}
	}
	if j.barrier == nil {
		b := &barrier{epoch: req.Epoch, size: req.Size, addrs: make([]string, req.Size), done: make(chan struct{})}
		b.timer = time.AfterFunc(s.cfg.JoinTimeout, func() { s.expireBarrier(j.name, b) })
		j.barrier = b
	}
	b := j.barrier
	if prev := b.addrs[req.Rank]; prev != "" && prev != req.Addr {
		return nil, response{Code: codeConflict, Error: fmt.Sprintf("rank %d already joined from %s", req.Rank, prev)}
	}
	if b.addrs[req.Rank] == "" {
		b.addrs[req.Rank] = req.Addr
		b.joined++
	}
	if b.joined == b.size {
		s.gen++
		b.gen = s.gen
		j.world = &worldState{gen: b.gen, epoch: b.epoch, addrs: append([]string(nil), b.addrs...)}
		j.barrier = nil
		b.timer.Stop()
		close(b.done)
		s.logf("coord: job %q epoch %d sealed: generation %d, %d ranks", j.name, b.epoch, b.gen, b.size)
	}
	return b, response{}
}

// expireBarrier fails a barrier that never filled, unless it sealed (or was
// replaced) in the meantime.
func (s *Server) expireBarrier(jobName string, b *barrier) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[jobName]
	if j == nil || j.barrier != b {
		return
	}
	b.failLocked(&response{Code: codeRetry, Error: fmt.Sprintf("join barrier epoch %d timed out with %d/%d ranks", b.epoch, b.joined, b.size)})
	j.barrier = nil
	s.logf("coord: job %q epoch %d barrier expired with %d/%d ranks", jobName, b.epoch, b.joined, b.size)
}

// --- heartbeats -------------------------------------------------------------

// handleBeats serves one rank's heartbeat session. A heartbeat line is
// answered; a beacon line is forwarded to the job's controller and answered
// only when its generation is fenced. A fenced line of either kind is told
// and then hung up on, and an oversize beacon ends the session unanswered.
func (s *Server) handleBeats(conn net.Conn, lr *lineReader, req request) {
	for len(req.Beacon) <= maxBeacon {
		resp, epoch, ctrl := s.beat(req)
		if req.Beacon == nil || resp.Code == codeFenced {
			if writeLine(conn, resp) != nil || resp.Code == codeFenced {
				return
			}
		} else if ctrl != nil {
			ctrl.send(event{Event: EventBeacon, Rank: req.Rank, Epoch: epoch, Beacon: req.Beacon})
		}
		req = request{}
		if lr.decode(&req) != nil {
			return
		}
	}
}

// beat checks one session line's generation and rank against the job's
// sealed world. An OK response comes with the world's epoch and the attached
// controller (nil when none), where the line's beacon goes.
func (s *Server) beat(req request) (response, int, *ctrlConn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[req.Job]
	if j == nil || j.world == nil {
		// Coordinator restarted (or the job never sealed): the token cannot
		// be validated. Retryable — the supervisor will rebuild the world.
		return response{Code: codeRetry, Error: fmt.Sprintf("job %q has no sealed world", req.Job)}, 0, nil
	}
	w := j.world
	if req.Gen < w.gen {
		return response{Code: codeFenced, Gen: w.gen, Error: (&FencedError{Job: req.Job, Gen: req.Gen, Current: w.gen}).Error()}, 0, nil
	}
	if req.Gen > w.gen {
		return response{Code: codeConflict, Error: fmt.Sprintf("generation %d from the future (current %d)", req.Gen, w.gen)}, 0, nil
	}
	if req.Rank < 0 || req.Rank >= len(w.addrs) {
		return response{Code: codeConflict, Error: fmt.Sprintf("rank %d out of range for size %d", req.Rank, len(w.addrs))}, 0, nil
	}
	return response{OK: true, Gen: w.gen}, w.epoch, j.ctrl
}

// --- host agents ------------------------------------------------------------

func (s *Server) handleAgent(conn net.Conn, lr *lineReader, req request) {
	if req.Host == "" || req.Slots <= 0 {
		writeLine(conn, response{Code: codeConflict, Error: "agent registration needs host name and positive slots"})
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	j := s.job(req.Job)
	if j.hosts[req.Host] != nil {
		s.mu.Unlock()
		writeLine(conn, response{Code: codeConflict, Error: fmt.Sprintf("host %q already registered", req.Host)})
		return
	}
	a := &agentConn{host: req.Host, slots: req.Slots, conn: conn, enc: json.NewEncoder(conn), lastPing: time.Now()}
	j.hosts[req.Host] = a
	ctrl := j.ctrl
	s.mu.Unlock()
	s.logf("coord: job %q host %q registered (%d slots)", req.Job, req.Host, req.Slots)
	if a.send(response{OK: true, LeaseMS: s.cfg.LeaseTTL.Milliseconds()}) != nil {
		s.dropHost(req.Job, req.Host, "registration write failed")
		return
	}
	if ctrl != nil {
		ctrl.send(event{Event: EventHost, Host: req.Host, Slots: req.Slots})
	}

	for {
		var ev event
		if err := lr.decode(&ev); err != nil {
			s.dropHost(req.Job, req.Host, "agent connection lost")
			return
		}
		switch ev.Event {
		case EventPing:
			s.mu.Lock()
			a.lastPing = time.Now()
			s.mu.Unlock()
		case EventExit:
			s.mu.Lock()
			if j.spawns[ev.ID] == req.Host {
				delete(j.spawns, ev.ID) // an agent retires only its own spawns
			}
			ctrl := j.ctrl
			s.mu.Unlock()
			if ctrl != nil {
				ctrl.send(event{Event: EventExit, Host: req.Host, ID: ev.ID, Code: ev.Code, Err: ev.Err})
			}
		}
	}
}

// dropHost condemns one host: its registration disappears, its live spawns
// synthesize exit events (so the controller's wait loop stays uniform), and
// the controller learns the host is gone. Idempotent.
func (s *Server) dropHost(jobName, host, why string) {
	s.mu.Lock()
	j := s.jobs[jobName]
	if j == nil {
		s.mu.Unlock()
		return
	}
	a := j.hosts[host]
	if a == nil {
		s.mu.Unlock()
		return
	}
	delete(j.hosts, host)
	var orphans []string
	for id, h := range j.spawns {
		if h == host {
			orphans = append(orphans, id)
			delete(j.spawns, id)
		}
	}
	ctrl := j.ctrl
	s.mu.Unlock()
	a.conn.Close()
	s.logf("coord: job %q host %q condemned: %s (%d orphaned spawns)", jobName, host, why, len(orphans))
	if ctrl != nil {
		for _, id := range orphans {
			ctrl.send(event{Event: EventExit, Host: host, ID: id, Code: -1, Err: HostLost + ": " + why})
		}
		ctrl.send(event{Event: EventHostLost, Host: host, Err: why})
	}
}

// reapLoop condemns hosts whose lease lapsed — the coordinator-side failure
// detector for silent hosts whose TCP connections are still nominally open
// (asymmetric partition, frozen machine).
func (s *Server) reapLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			type victim struct{ job, host string }
			var victims []victim
			s.mu.Lock()
			now := time.Now()
			for name, j := range s.jobs {
				for host, a := range j.hosts {
					if now.Sub(a.lastPing) > s.cfg.LeaseTTL {
						victims = append(victims, victim{name, host})
					}
				}
			}
			s.mu.Unlock()
			for _, v := range victims {
				s.dropHost(v.job, v.host, "lease expired")
			}
		}
	}
}

// --- controller -------------------------------------------------------------

func (s *Server) handleControl(conn net.Conn, lr *lineReader, req request) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	j := s.job(req.Job)
	if old := j.ctrl; old != nil {
		// A supervisor restart re-attaches; the stale controller is dead
		// weight and its conn is closed in its read loop's error path.
		old.conn.Close()
	}
	c := &ctrlConn{conn: conn, enc: json.NewEncoder(conn)}
	j.ctrl = c
	hosts := make([]*agentConn, 0, len(j.hosts))
	for _, a := range j.hosts {
		hosts = append(hosts, a)
	}
	s.mu.Unlock()

	if c.send(response{OK: true, LeaseMS: s.cfg.LeaseTTL.Milliseconds()}) != nil {
		s.detachControl(req.Job, c)
		return
	}
	for _, a := range hosts {
		c.send(event{Event: EventHost, Host: a.host, Slots: a.slots})
	}
	c.send(event{Event: EventSync})

	for {
		var cmd command
		if err := lr.decode(&cmd); err != nil {
			s.detachControl(req.Job, c)
			return
		}
		switch cmd.Cmd {
		case CmdSpawn:
			s.mu.Lock()
			a := j.hosts[cmd.Host]
			if a != nil {
				j.spawns[cmd.ID] = cmd.Host
			}
			s.mu.Unlock()
			if a == nil {
				c.send(event{Event: EventExit, Host: cmd.Host, ID: cmd.ID, Code: -1, Err: fmt.Sprintf("no such host %q", cmd.Host)})
				continue
			}
			if a.send(command{Cmd: CmdSpawn, ID: cmd.ID, Argv: cmd.Argv, Dir: cmd.Dir, Env: cmd.Env}) != nil {
				s.dropHost(req.Job, cmd.Host, "spawn write failed")
			}
		case CmdSignal:
			s.mu.Lock()
			host := j.spawns[cmd.ID]
			a := j.hosts[host]
			s.mu.Unlock()
			if a == nil {
				continue // already exited or host condemned: signal is moot
			}
			if a.send(command{Cmd: CmdSignal, ID: cmd.ID, Sig: cmd.Sig}) != nil {
				s.dropHost(req.Job, host, "signal write failed")
			}
		}
	}
}

func (s *Server) detachControl(jobName string, c *ctrlConn) {
	s.mu.Lock()
	if j := s.jobs[jobName]; j != nil && j.ctrl == c {
		j.ctrl = nil
	}
	s.mu.Unlock()
}
