package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"distlouvain/internal/backoff"
)

// JoinConfig describes one rank's registration.
type JoinConfig struct {
	Coord string // coordinator address
	Job   string // job id; every rank of one world uses the same id
	Epoch int    // incarnation number; the supervisor bumps it per relaunch
	Rank  int
	Size  int
	Addr  string // this rank's advertised mesh address
	// DialTimeout bounds each connection attempt; Deadline bounds the whole
	// rendezvous including retries. Zero values select 2s and 30s.
	DialTimeout time.Duration
	Deadline    time.Duration
	// Seed drives the retry jitter (0 derives one from rank).
	Seed uint64
}

// Join registers with the coordinator and blocks until the world seals,
// returning the full membership and the fencing generation. Connection
// failures and retryable coordinator errors (barrier timeout, coordinator
// restart mid-registration) are retried with jittered exponential backoff
// until Deadline; fencing and registration conflicts are terminal and
// returned typed (*FencedError) or wrapped immediately.
func Join(cfg JoinConfig) (World, error) {
	dialTimeout := cfg.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	deadline := cfg.Deadline
	if deadline <= 0 {
		deadline = 30 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = (uint64(cfg.Rank)+1)*0x9e3779b97f4a7c15 | 1
	}
	end := time.Now().Add(deadline)
	sl := backoff.NewSleeper(backoff.Policy{Base: 25 * time.Millisecond, Max: 2 * time.Second, Seed: seed})
	var lastErr error
	for {
		w, err := joinOnce(cfg, dialTimeout, end)
		if err == nil {
			return w, nil
		}
		var retry *retryableError
		if !errors.As(err, &retry) {
			return World{}, err
		}
		lastErr = retry.cause
		if !sl.Sleep(end) {
			break
		}
	}
	return World{}, fmt.Errorf("coord: rank %d join job %q at %s: %w", cfg.Rank, cfg.Job, cfg.Coord, lastErr)
}

// retryableError wraps transient join failures so the retry loop can tell
// them from terminal ones.
type retryableError struct{ cause error }

func (e *retryableError) Error() string { return e.cause.Error() }
func (e *retryableError) Unwrap() error { return e.cause }

func joinOnce(cfg JoinConfig, dialTimeout time.Duration, end time.Time) (World, error) {
	conn, err := net.DialTimeout("tcp", cfg.Coord, dialTimeout)
	if err != nil {
		return World{}, &retryableError{err}
	}
	defer conn.Close()
	conn.SetDeadline(end)
	req := request{Op: "join", Job: cfg.Job, Epoch: cfg.Epoch, Rank: cfg.Rank, Size: cfg.Size, Addr: cfg.Addr}
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return World{}, &retryableError{err}
	}
	var resp response
	if err := newLineReader(conn).decode(&resp); err != nil {
		return World{}, &retryableError{err}
	}
	return checkResponse(cfg, resp)
}

func checkResponse(cfg JoinConfig, resp response) (World, error) {
	switch {
	case resp.OK:
		if len(resp.Addrs) != cfg.Size {
			return World{}, fmt.Errorf("coord: sealed world has %d addresses, expected %d", len(resp.Addrs), cfg.Size)
		}
		return World{Gen: resp.Gen, Addrs: resp.Addrs, LeaseTTL: time.Duration(resp.LeaseMS) * time.Millisecond}, nil
	case resp.Code == codeFenced:
		// A joiner holds no generation yet — its epoch was superseded before
		// it could seal — so the stale-token field stays zero.
		return World{}, &FencedError{Job: cfg.Job, Current: resp.Gen}
	case resp.Code == codeRetry:
		return World{}, &retryableError{errors.New(resp.Error)}
	default:
		return World{}, fmt.Errorf("coord: join rejected: %s", resp.Error)
	}
}

// SessionConfig describes a heartbeat session holding one rank's lease.
type SessionConfig struct {
	Coord string
	Job   string
	Gen   uint64 // the fencing token the world was sealed with
	Rank  int
	// Interval between heartbeats; pick comfortably inside the lease TTL
	// Join returned (TTL/3 is conventional). Zero selects 1s.
	Interval time.Duration
	// OnFenced runs exactly once, from the session goroutine, when the
	// coordinator reports the generation superseded. The argument is a
	// *FencedError. Use it to poison the rank's transport so blocked
	// collectives fail typed instead of hanging.
	OnFenced    func(error)
	DialTimeout time.Duration
	Seed        uint64
}

// Session is a background heartbeat loop, and the rank's beacon channel to
// the job's controller. It survives coordinator outages by redialing with
// jittered backoff (the lease may lapse meanwhile — that is the coordinator's
// signal, not the session's problem) and terminates itself on fencing.
type Session struct {
	cfg     SessionConfig
	stop    chan struct{}
	done    chan struct{}
	beacons chan []byte
	down    atomic.Bool // the last dial or connection failed; no redial has succeeded since

	mu  sync.Mutex
	err error // terminal fencing error, set before done closes
}

// StartSession launches the heartbeat loop.
func StartSession(cfg SessionConfig) *Session {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = (uint64(cfg.Rank)+0x9e37)*0x9e3779b97f4a7c15 | 1
	}
	// A rank beacons once per iteration and the session drains the queue
	// between heartbeats; 64 rides out a heartbeat round trip on a slow link.
	s := &Session{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{}), beacons: make(chan []byte, 64)}
	go s.run()
	return s
}

// Beacon queues one JSON payload for the coordinator to forward to the job's
// controller, tagged with this rank and its world's epoch. It never blocks:
// the payload is dropped when it is not one JSON value of at most 4 KiB, when
// the queue is full, or while the session is between dials.
func (s *Session) Beacon(payload []byte) {
	if len(payload) > maxBeacon || s.down.Load() || !json.Valid(payload) {
		return
	}
	select {
	case s.beacons <- payload:
	default:
	}
}

// Err returns the terminal fencing error, or nil while the session is live
// or after an orderly Close.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close stops the heartbeat loop and waits for it to exit. The lease then
// lapses naturally on the coordinator.
func (s *Session) Close() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}

func (s *Session) run() {
	defer close(s.done)
	sl := backoff.NewSleeper(backoff.Policy{Base: 50 * time.Millisecond, Max: 2 * time.Second, Seed: s.cfg.Seed})
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		fenced, connected := s.serve()
		if fenced != nil {
			s.mu.Lock()
			s.err = fenced
			s.mu.Unlock()
			if s.cfg.OnFenced != nil {
				s.cfg.OnFenced(fenced)
			}
			return
		}
		if connected {
			// The outage is fresh: restart the backoff schedule.
			sl = backoff.NewSleeper(backoff.Policy{Base: 50 * time.Millisecond, Max: 2 * time.Second, Seed: s.cfg.Seed})
		}
		d := sl.Next()
		select {
		case <-s.stop:
			return
		case <-time.After(d):
		}
	}
}

// serve runs one connection worth of heartbeats, sending queued beacons
// between them. It returns a non-nil *FencedError when the coordinator fences
// the generation, and whether a connection was established at all (to reset
// the redial backoff). A fenced beacon's reply is read after the next
// heartbeat; if the hang-up loses it, the redial's first heartbeat is fenced.
func (s *Session) serve() (error, bool) {
	conn, err := net.DialTimeout("tcp", s.cfg.Coord, s.cfg.DialTimeout)
	s.down.Store(err != nil)
	if err != nil {
		return nil, false
	}
	defer conn.Close()
	defer s.down.Store(true)
	enc := json.NewEncoder(conn)
	lr := newLineReader(conn)
	send := func(line request) error {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.Interval * 3))
		return enc.Encode(line)
	}
	hb := request{Op: "heartbeat", Job: s.cfg.Job, Gen: s.cfg.Gen, Rank: s.cfg.Rank}
	tick := time.NewTicker(s.cfg.Interval)
	defer tick.Stop()
	for {
		if send(hb) != nil {
			return nil, true
		}
		conn.SetReadDeadline(time.Now().Add(s.cfg.Interval * 3))
		var resp response
		if err := lr.decode(&resp); err != nil {
			return nil, true
		}
		if resp.Code == codeFenced {
			return &FencedError{Job: s.cfg.Job, Gen: s.cfg.Gen, Current: resp.Gen}, true
		}
		for due := false; !due; {
			line := hb
			select {
			case <-s.stop:
				// Close flushes what the rank queued last (its done beacon).
				for n := len(s.beacons); n > 0; n-- {
					if line.Beacon = <-s.beacons; send(line) != nil {
						break
					}
				}
				return nil, true
			case line.Beacon = <-s.beacons:
				if send(line) != nil {
					return nil, true
				}
			case <-tick.C:
				due = true
			}
		}
	}
}
