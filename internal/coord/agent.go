package coord

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"
)

// AgentConfig describes a host agent registration.
type AgentConfig struct {
	Coord string
	Job   string
	Host  string // unique host name within the job
	Slots int    // how many ranks this host is willing to run
	// PingInterval renews the lease; zero selects a third of the TTL the
	// coordinator returned.
	PingInterval time.Duration
	DialTimeout  time.Duration
}

// Agent is one registered host. The process-execution side lives in the
// caller (cmd/dlouvain's host-agent mode): the agent surfaces coordinator
// commands on Commands and the caller reports outcomes via ReportExit. The
// agent pings the coordinator in the background to hold its lease; when the
// connection dies, Commands closes and the caller re-registers (the
// coordinator has already condemned the old registration by then).
type Agent struct {
	Commands <-chan Command

	conn net.Conn
	enc  *json.Encoder
	wmu  sync.Mutex
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// Command is one instruction from the controller.
type Command struct {
	Kind string // CmdSpawn or CmdSignal
	ID   string
	Argv []string
	Dir  string
	Env  []string
	Sig  int
}

// DialAgent registers a host agent with the coordinator.
func DialAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	conn, err := net.DialTimeout("tcp", cfg.Coord, cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("coord: agent dial %s: %w", cfg.Coord, err)
	}
	lr := newLineReader(conn)
	a := &Agent{conn: conn, enc: json.NewEncoder(conn), stop: make(chan struct{}), done: make(chan struct{})}
	conn.SetDeadline(time.Now().Add(cfg.DialTimeout * 2))
	if err := a.send(request{Op: "agent", Job: cfg.Job, Host: cfg.Host, Slots: cfg.Slots}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("coord: agent register: %w", err)
	}
	var resp response
	if err := lr.decode(&resp); err != nil {
		conn.Close()
		return nil, fmt.Errorf("coord: agent register: %w", err)
	}
	if !resp.OK {
		conn.Close()
		return nil, fmt.Errorf("coord: agent register: %s", resp.Error)
	}
	conn.SetDeadline(time.Time{})

	ping := cfg.PingInterval
	if ping <= 0 {
		if ttl := time.Duration(resp.LeaseMS) * time.Millisecond; ttl > 0 {
			ping = ttl / 3
		} else {
			ping = time.Second
		}
	}
	cmds := make(chan Command, 16)
	a.Commands = cmds

	go func() { // lease renewal
		tick := time.NewTicker(ping)
		defer tick.Stop()
		for {
			select {
			case <-a.stop:
				return
			case <-tick.C:
				if a.send(event{Event: EventPing}) != nil {
					return // read loop notices the dead conn and closes Commands
				}
			}
		}
	}()
	go func() { // command reader
		defer close(a.done)
		defer close(cmds)
		for {
			var cmd command
			if err := lr.decode(&cmd); err != nil {
				return
			}
			select {
			case cmds <- Command{Kind: cmd.Cmd, ID: cmd.ID, Argv: cmd.Argv, Dir: cmd.Dir, Env: cmd.Env, Sig: cmd.Sig}:
			case <-a.stop:
				return
			}
		}
	}()
	return a, nil
}

func (a *Agent) send(v any) error {
	a.wmu.Lock()
	defer a.wmu.Unlock()
	a.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	return a.enc.Encode(v)
}

// ReportExit tells the controller a spawned process finished.
func (a *Agent) ReportExit(id string, code int, errMsg string) error {
	return a.send(event{Event: EventExit, ID: id, Code: code, Err: errMsg})
}

// Close deregisters the agent (the coordinator condemns the host when the
// connection drops).
func (a *Agent) Close() {
	a.once.Do(func() { close(a.stop) })
	a.conn.Close()
	<-a.done
}

// --- controller -------------------------------------------------------------

// Event is one notification the coordinator pushes to a controller.
type Event struct {
	Kind  string // EventHost, EventHostLost, EventSync, EventExit, EventBeacon
	Host  string
	Slots int
	ID    string
	Code  int
	Err   string
	// Rank, Epoch and Beacon describe an EventBeacon: the sending rank, its
	// world's epoch and the payload exactly as the rank's Session sent it.
	Rank   int
	Epoch  int
	Beacon []byte
}

// Controller is the supervising driver's attachment to a job: it observes
// host membership and spawn exits on Events and routes spawn/signal commands
// through the coordinator. Events closes when the coordinator connection
// dies; the driver treats that like any other retryable world failure.
type Controller struct {
	Events   <-chan Event
	LeaseTTL time.Duration

	conn net.Conn
	enc  *json.Encoder
	wmu  sync.Mutex
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// DialController attaches to a job as its (sole) controller.
func DialController(coordAddr, jobName string, dialTimeout time.Duration) (*Controller, error) {
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	conn, err := net.DialTimeout("tcp", coordAddr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("coord: controller dial %s: %w", coordAddr, err)
	}
	lr := newLineReader(conn)
	c := &Controller{conn: conn, enc: json.NewEncoder(conn), stop: make(chan struct{}), done: make(chan struct{})}
	conn.SetDeadline(time.Now().Add(dialTimeout * 2))
	if err := c.send(request{Op: "control", Job: jobName}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("coord: controller attach: %w", err)
	}
	var resp response
	if err := lr.decode(&resp); err != nil {
		conn.Close()
		return nil, fmt.Errorf("coord: controller attach: %w", err)
	}
	if !resp.OK {
		conn.Close()
		return nil, fmt.Errorf("coord: controller attach: %s", resp.Error)
	}
	conn.SetDeadline(time.Time{})
	c.LeaseTTL = time.Duration(resp.LeaseMS) * time.Millisecond

	events := make(chan Event, 64)
	c.Events = events
	go func() {
		defer close(c.done)
		defer close(events)
		for {
			var ev event
			if err := lr.decode(&ev); err != nil {
				return
			}
			select {
			case events <- Event{Kind: ev.Event, Host: ev.Host, Slots: ev.Slots, ID: ev.ID, Code: ev.Code, Err: ev.Err,
				Rank: ev.Rank, Epoch: ev.Epoch, Beacon: ev.Beacon}:
			case <-c.stop:
				return
			}
		}
	}()
	return c, nil
}

func (c *Controller) send(v any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	return c.enc.Encode(v)
}

// Spawn asks host to exec argv (argv[0] is the binary) with extra
// environment env, identified by id in later Signal calls and EventExit.
// Outcomes — including "no such host" — arrive as EventExit events.
func (c *Controller) Spawn(host, id string, argv []string, dir string, env []string) error {
	return c.send(command{Cmd: CmdSpawn, Host: host, ID: id, Argv: argv, Dir: dir, Env: env})
}

// Signal delivers a signal number to a spawned process by id. Signalling an
// already-exited id is a silent no-op.
func (c *Controller) Signal(id string, sig int) error {
	return c.send(command{Cmd: CmdSignal, ID: id, Sig: sig})
}

// Close detaches the controller.
func (c *Controller) Close() {
	c.once.Do(func() { close(c.stop) })
	c.conn.Close()
	<-c.done
}
