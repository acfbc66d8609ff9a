// Host-agent mode: `dlouvain -host-agent -coord host:port` turns this
// process into a machine agent. It registers the machine's rank slots with
// the coordinator, holds the lease with background pings, and executes the
// rank processes a tcp-remote driver places here, reporting their exits back
// over the control channel. -transport tcp-local embeds the same agent in the
// driver process (startEmbeddedAgent), so a single-host world is spawned,
// signalled and reaped through exactly the path a multi-host one is.
//
// The agent deliberately does NOT kill its children when the coordinator
// connection drops: a coordinator restart is survivable for running worlds
// (rank heartbeat sessions retry), and a genuinely superseded world is kept
// out by generation fencing, not by the agent. It simply re-registers with
// backoff and keeps going.
package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"distlouvain/internal/backoff"
	"distlouvain/internal/coord"
)

// hostAgentState tracks the live spawns and the current coordinator
// registration so exit reports always go to the newest connection.
type hostAgentState struct {
	// ownGroup puts every spawned rank in a process group of its own. The
	// embedded agent sets it so the driver stays the only signal distributor
	// (a terminal Ctrl-C can't double-deliver to ranks); the standalone
	// agent's ranks share its group on purpose — one SIGKILL of the group
	// is a whole-host crash, which is exactly the failure the WAN chaos
	// tests inject.
	ownGroup bool

	mu       sync.Mutex
	agent    *coord.Agent // current registration; nil between connections
	procs    map[string]*exec.Cmd
	draining bool
}

func runHostAgent(coordAddr, job, host string, slots int, advertise string) {
	if host == "" {
		h, err := os.Hostname()
		if err != nil {
			fatalf("-agent-host not set and hostname unavailable: %v", err)
		}
		host = h
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dlouvain-agent: "+format+"\n", args...)
	}
	st := &hostAgentState{procs: make(map[string]*exec.Cmd)}

	// SIGTERM drains: forward it to every rank (they checkpoint at the next
	// phase boundary and exit retryable), then leave once the last exit has
	// been reported. A second signal aborts immediately via trapInterrupt.
	trapInterrupt(func(os.Signal) {
		st.mu.Lock()
		st.draining = true
		n := len(st.procs)
		for _, p := range st.procs {
			if p.Process != nil {
				p.Process.Signal(syscall.SIGTERM)
			}
		}
		st.mu.Unlock()
		logf("SIGTERM: draining %d rank(s) via forced checkpoint", n)
		go func() {
			for {
				st.mu.Lock()
				n := len(st.procs)
				st.mu.Unlock()
				if n == 0 {
					os.Exit(0)
				}
				time.Sleep(50 * time.Millisecond)
			}
		}()
	})

	// Registration loop: every connection loss (coordinator restart, WAN
	// flap) falls back here and re-registers with jittered backoff.
	seed := uint64(1)
	for _, c := range host {
		seed = seed*0x9e3779b97f4a7c15 + uint64(c)
	}
	pol := backoff.Policy{Base: 200 * time.Millisecond, Max: 5 * time.Second, Seed: seed}
	attempt := 0
	for {
		st.mu.Lock()
		draining := st.draining
		st.mu.Unlock()
		if draining {
			select {} // the drain goroutine owns the exit
		}
		a, err := coord.DialAgent(coord.AgentConfig{
			Coord: coordAddr, Job: job, Host: host, Slots: slots,
		})
		if err != nil {
			attempt++
			logf("register with %s: %v (retrying)", coordAddr, err)
			time.Sleep(pol.Delay(attempt))
			continue
		}
		attempt = 0
		logf("registered host %q (%d slots) with %s", host, slots, coordAddr)
		st.mu.Lock()
		st.agent = a
		st.mu.Unlock()
		serveAgentCommands(st, a, advertise, logf)
		st.mu.Lock()
		st.agent = nil
		st.mu.Unlock()
		a.Close()
		logf("coordinator connection lost; re-registering")
	}
}

// startEmbeddedAgent registers this process with the (loopback) coordinator
// as the host "local" offering slots rank slots and serves its commands in
// the background. It returns once registered, so a controller attaching
// afterwards finds the host in its membership snapshot. No re-registration
// loop and no drain handler: coordinator, agent and driver are one process,
// and the driver owns the signals.
func startEmbeddedAgent(coordAddr, job string, slots int, logf func(string, ...any)) error {
	a, err := coord.DialAgent(coord.AgentConfig{Coord: coordAddr, Job: job, Host: "local", Slots: slots})
	if err != nil {
		return err
	}
	st := &hostAgentState{ownGroup: true, agent: a, procs: make(map[string]*exec.Cmd)}
	go serveAgentCommands(st, a, "", logf)
	return nil
}

// serveAgentCommands executes commands from one coordinator connection until
// it dies (Commands closes).
func serveAgentCommands(st *hostAgentState, a *coord.Agent, advertise string, logf func(string, ...any)) {
	for cmd := range a.Commands {
		switch cmd.Kind {
		case coord.CmdSpawn:
			spawnRank(st, cmd, advertise, logf)
		case coord.CmdSignal:
			st.mu.Lock()
			p := st.procs[cmd.ID]
			st.mu.Unlock()
			if p != nil && p.Process != nil {
				logf("signal %d -> %s (pid %d)", cmd.Sig, cmd.ID, p.Process.Pid)
				p.Process.Signal(syscall.Signal(cmd.Sig))
			}
		}
	}
}

func spawnRank(st *hostAgentState, cmd coord.Command, advertise string, logf func(string, ...any)) {
	if len(cmd.Argv) == 0 {
		st.reportExit(cmd.ID, -1, "spawn with empty argv")
		return
	}
	c := exec.Command(cmd.Argv[0], cmd.Argv[1:]...)
	c.Dir = cmd.Dir
	c.Env = append(os.Environ(), cmd.Env...)
	if advertise != "" {
		c.Env = append(c.Env, envAdvertise+"="+advertise)
	}
	// Their output lands in the host's agent log (the embedded agent's is
	// the driver's own stdout and stderr).
	c.Stdout = os.Stdout
	c.Stderr = os.Stderr
	if st.ownGroup {
		c.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	}
	if err := c.Start(); err != nil {
		logf("spawn %s: %v", cmd.ID, err)
		st.reportExit(cmd.ID, -1, err.Error())
		return
	}
	st.mu.Lock()
	st.procs[cmd.ID] = c
	st.mu.Unlock()
	logf("spawned %s (pid %d)", cmd.ID, c.Process.Pid)
	go func() {
		err := c.Wait()
		code, msg := 0, ""
		if err != nil {
			msg = err.Error()
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				code = ee.ExitCode() // -1 for signal deaths, as the wire expects
			} else {
				code = -1
			}
		}
		st.mu.Lock()
		delete(st.procs, cmd.ID)
		st.mu.Unlock()
		st.reportExit(cmd.ID, code, msg)
	}()
}

// reportExit delivers an exit event over the current registration; if the
// connection is down the report is dropped — the coordinator has already
// synthesized exits for this host's spawns when it condemned the old lease.
func (st *hostAgentState) reportExit(id string, code int, msg string) {
	st.mu.Lock()
	a := st.agent
	st.mu.Unlock()
	if a != nil {
		a.ReportExit(id, code, msg)
	}
}
