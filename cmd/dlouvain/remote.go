// Process worlds: one OS process per rank, spawned, signalled and reaped
// through a coordinator's control channel and the host agents registered
// with it. -transport tcp-remote uses the coordinator -coord names and
// whatever agents the operator started; -transport tcp-local is the
// single-host case of the same path — it starts a coordinator and one agent
// with -np slots inside the driver process, on loopback. Each attempt places
// one rank process per slot across the currently registered hosts. The ranks'
// progress beacons ride their coordinator heartbeat sessions and arrive on
// the same controller connection as spawn exits, so the driver needs to reach
// only the coordinator. Rank death reaches the driver as an exit event; host
// death reaches it when the coordinator's lease reaper condemns the silent
// host and synthesizes exits for its orphaned spawns. Either way the attempt
// fails retryably and the next attempt — at the NEXT epoch, so the old world
// is fenced — re-places every rank on the hosts that survive.
//
// Across hosts the graph and -ckpt-dir must live on storage every host
// shares; the driver does not ship files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"distlouvain/internal/coord"
	"distlouvain/internal/obsv"
	"distlouvain/internal/supervisor"
)

// remoteOptions carries the process-world flag values from main.
type remoteOptions struct {
	coord string // coordinator address (tcp-local fills in its own)
	job   string // job id shared with the host agents
	bin   string // dlouvain binary path on the agent hosts
}

// remoteLauncher implements supervisor.Launcher over the coordinator's
// control channel.
type remoteLauncher struct {
	opts        remoteOptions
	graph       string
	dir         string            // working directory sent with spawns
	passthrough []string          // shared child flags (variant, ckpt-dir, timeout, ...)
	inject      supervisor.Inject // the -chaos hook: FaultKill = SIGKILL, FaultHang = SIGSTOP
	// placeLogf receives membership and placement lines (host joined or
	// condemned, rank -> host). On a single embedded host they say nothing,
	// so tcp-local shows them only under -v.
	placeLogf func(format string, args ...any)

	mu     sync.Mutex
	ctrl   *coord.Controller
	hosts  map[string]int // live host -> slots
	synced chan struct{}  // closed once the membership snapshot is in
	cur    *remoteAttempt
}

// ensureController dials the coordinator's control channel if the previous
// connection is gone, waiting until the host-membership snapshot arrives.
func (l *remoteLauncher) ensureController() error {
	l.mu.Lock()
	if l.ctrl != nil {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	ctrl, err := coord.DialController(l.opts.coord, l.opts.job, 0)
	if err != nil {
		return fmt.Errorf("attach to coordinator %s: %w", l.opts.coord, err)
	}
	synced := make(chan struct{})
	l.mu.Lock()
	l.ctrl = ctrl
	l.hosts = make(map[string]int)
	l.synced = synced
	l.mu.Unlock()
	go l.route(ctrl, synced)
	select {
	case <-synced:
		return nil
	case <-time.After(30 * time.Second):
		ctrl.Close()
		return fmt.Errorf("coordinator %s sent no membership snapshot", l.opts.coord)
	}
}

// route consumes one controller connection's event stream: membership
// updates mutate the host map, exits go to the current attempt, beacons go
// to it only when they come from its epoch — a rank of an earlier attempt
// keeps beaconing until the new world's seal fences it — and the stream's
// death fails the attempt retryably (the next launch re-dials).
func (l *remoteLauncher) route(ctrl *coord.Controller, synced chan struct{}) {
	for ev := range ctrl.Events {
		switch ev.Kind {
		case coord.EventHost:
			l.mu.Lock()
			l.hosts[ev.Host] = ev.Slots
			l.mu.Unlock()
			l.placeLogf("host %q joined (%d slots)", ev.Host, ev.Slots)
		case coord.EventHostLost:
			l.mu.Lock()
			delete(l.hosts, ev.Host)
			l.mu.Unlock()
			l.placeLogf("coordinator condemned host %q: %s", ev.Host, ev.Err)
		case coord.EventSync:
			select {
			case <-synced:
			default:
				close(synced)
			}
		case coord.EventExit:
			// A synthetic host-lost exit precedes its EventHostLost on the
			// wire; drop the host now so a relaunch that races the next
			// event cannot place ranks on the corpse.
			if ev.Code == -1 && ev.Host != "" && strings.HasPrefix(ev.Err, coord.HostLost) {
				l.mu.Lock()
				delete(l.hosts, ev.Host)
				l.mu.Unlock()
			}
			l.mu.Lock()
			cur := l.cur
			l.mu.Unlock()
			if cur != nil {
				cur.exit(ev)
			}
		case coord.EventBeacon:
			l.mu.Lock()
			cur := l.cur
			l.mu.Unlock()
			var b supervisor.Beacon
			if cur != nil && ev.Epoch == cur.epoch && json.Unmarshal(ev.Beacon, &b) == nil {
				b.Rank = ev.Rank
				cur.beacon(b)
			}
		}
	}
	l.mu.Lock()
	dead := l.ctrl == ctrl
	if dead {
		l.ctrl = nil
	}
	cur := l.cur
	l.mu.Unlock()
	if dead && cur != nil {
		cur.fail("coordinator control channel lost")
	}
}

// placement assigns each rank a host, round-robin across the live hosts'
// slots (sorted by name for determinism), oversubscribing when a relaunch
// must fit the world onto fewer survivors.
func (l *remoteLauncher) placement(ranks int, deadline time.Duration) ([]string, error) {
	limit := time.Now().Add(deadline)
	for {
		l.mu.Lock()
		names := make([]string, 0, len(l.hosts))
		for h := range l.hosts {
			names = append(names, h)
		}
		sort.Strings(names)
		var slots []string
		for _, h := range names {
			for i := 0; i < l.hosts[h]; i++ {
				slots = append(slots, h)
			}
		}
		l.mu.Unlock()
		if len(slots) > 0 {
			if len(slots) < ranks {
				l.placeLogf("oversubscribing: %d ranks on %d slot(s) across %d host(s)", ranks, len(slots), len(names))
			}
			placed := make([]string, ranks)
			for r := range placed {
				placed[r] = slots[r%len(slots)]
			}
			return placed, nil
		}
		if time.Now().After(limit) {
			return nil, fmt.Errorf("no registered hosts for job %q after %v", l.opts.job, deadline)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (l *remoteLauncher) Launch(spec supervisor.LaunchSpec, beacons func(supervisor.Beacon)) (supervisor.Attempt, error) {
	if err := l.ensureController(); err != nil {
		return nil, err
	}
	placed, err := l.placement(spec.Ranks, 30*time.Second)
	if err != nil {
		return nil, err
	}
	// Epoch = attempt + 1: every relaunch seals a fresh generation, so the
	// previous attempt's stragglers are fenced instead of joining the mesh.
	epoch := spec.Attempt + 1
	a := &remoteAttempt{
		l:         l,
		epoch:     epoch,
		beacons:   beacons,
		live:      make(map[string]int, spec.Ranks),
		rankID:    make(map[int]string, spec.Ranks),
		retryable: true,
		done:      make(chan struct{}),
	}
	for r := 0; r < spec.Ranks; r++ {
		id := fmt.Sprintf("e%d-r%d", epoch, r)
		a.live[id] = r
		a.rankID[r] = id
	}
	l.mu.Lock()
	l.cur = a
	ctrl := l.ctrl
	l.mu.Unlock()
	env := []string{envLaunched + "=1"}
	for r := 0; r < spec.Ranks; r++ {
		args := []string{l.opts.bin, "-transport", "tcp",
			"-coord", l.opts.coord, "-coord-job", l.opts.job,
			"-coord-epoch", fmt.Sprint(epoch),
			"-rank", fmt.Sprint(r), "-np", fmt.Sprint(spec.Ranks)}
		args = append(args, l.passthrough...)
		args = append(args, l.graph)
		l.placeLogf("attempt %d: rank %d -> host %s (spawn %s)", spec.Attempt, r, placed[r], a.rankID[r])
		if err := ctrl.Spawn(placed[r], a.rankID[r], args, l.dir, env); err != nil {
			a.fail(fmt.Sprintf("spawn rank %d on %s: %v", r, placed[r], err))
			return a, nil
		}
	}
	return a, nil
}

// remoteAttempt is one placed world. Exits arrive via the launcher's event
// router; Kill/Interrupt travel back through the coordinator as signals. A
// wedged host cannot block Wait forever: its lease expires, the coordinator
// synthesizes exits for its spawns, and the attempt completes.
type remoteAttempt struct {
	l       *remoteLauncher
	epoch   int                     // the coordinator epoch its ranks join: attempt + 1
	beacons func(supervisor.Beacon) // the supervisor's sink

	mu        sync.Mutex
	live      map[string]int // spawn id -> rank, pending only
	rankID    map[int]string // rank -> spawn id (stable for the attempt)
	fails     []string
	retryable bool
	err       error
	finished  bool
	done      chan struct{}

	killOnce, intOnce sync.Once
}

// beacon shows one of the attempt's beacons to the -chaos hook, whose fault
// travels through the coordinator to whichever host runs the rank, and then
// hands it to the supervisor.
func (a *remoteAttempt) beacon(b supervisor.Beacon) {
	if a.l.inject != nil {
		switch a.l.inject(a.epoch-1, b) {
		case supervisor.FaultKill:
			a.signalRank(b.Rank, syscall.SIGKILL)
		case supervisor.FaultHang:
			a.signalRank(b.Rank, syscall.SIGSTOP)
		}
	}
	a.beacons(b)
}

func (a *remoteAttempt) exit(ev coord.Event) {
	a.mu.Lock()
	r, ok := a.live[ev.ID]
	if !ok {
		a.mu.Unlock()
		return // another attempt's spawn, or a duplicate report
	}
	delete(a.live, ev.ID)
	if ev.Code != 0 {
		where := ev.Host
		if where == "" {
			where = "?"
		}
		msg := fmt.Sprintf("rank %d on %s: exit %d", r, where, ev.Code)
		if ev.Err != "" {
			msg += " (" + ev.Err + ")"
		}
		a.fails = append(a.fails, msg)
		// Exit 3 is the retryable protocol code; -1 is a signal death or a
		// condemned host's synthetic exit — a lost peer, also retryable.
		if ev.Code != exitRetryable && ev.Code != -1 {
			a.retryable = false
		}
	}
	remaining := len(a.live)
	a.mu.Unlock()
	if remaining == 0 {
		a.finish()
	}
}

// fail terminates the attempt early (controller lost, spawn write failed):
// whatever ranks are still out there will be fenced by the next epoch.
func (a *remoteAttempt) fail(why string) {
	a.mu.Lock()
	if a.finished {
		a.mu.Unlock()
		return
	}
	a.fails = append(a.fails, why)
	a.live = map[string]int{}
	a.mu.Unlock()
	a.finish()
}

func (a *remoteAttempt) finish() {
	a.mu.Lock()
	if a.finished {
		a.mu.Unlock()
		return
	}
	a.finished = true
	if len(a.fails) > 0 {
		msg := a.fails[0]
		for _, f := range a.fails[1:] {
			msg += "; " + f
		}
		a.err = &childrenError{msg: msg, retryable: a.retryable}
	}
	a.mu.Unlock()
	a.l.mu.Lock()
	if a.l.cur == a {
		a.l.cur = nil
	}
	a.l.mu.Unlock()
	close(a.done)
}

// childrenError aggregates the failures of a process world's ranks with an
// explicit retryability verdict derived from their exit codes: the one place
// per-rank statuses fold into the driver's. It states the verdict itself, so
// supervisor.Retryable (and through it exitCodeFor's exit 3 or 1) honours it.
type childrenError struct {
	msg       string
	retryable bool
}

func (e *childrenError) Error() string   { return "world failed: " + e.msg }
func (e *childrenError) Retryable() bool { return e.retryable }

func (a *remoteAttempt) Wait() error { <-a.done; return a.err }

func (a *remoteAttempt) signalRank(rank int, sig syscall.Signal) {
	a.l.mu.Lock()
	ctrl := a.l.ctrl
	a.l.mu.Unlock()
	if ctrl == nil {
		return
	}
	a.mu.Lock()
	id, ok := a.rankID[rank]
	_, pending := a.live[id]
	a.mu.Unlock()
	if ok && pending {
		ctrl.Signal(id, int(sig))
	}
}

func (a *remoteAttempt) signalAll(sig syscall.Signal) {
	a.l.mu.Lock()
	ctrl := a.l.ctrl
	a.l.mu.Unlock()
	if ctrl == nil {
		return
	}
	a.mu.Lock()
	ids := make([]string, 0, len(a.live))
	for id := range a.live {
		ids = append(ids, id)
	}
	a.mu.Unlock()
	for _, id := range ids {
		ctrl.Signal(id, int(sig))
	}
}

func (a *remoteAttempt) Kill()      { a.killOnce.Do(func() { a.signalAll(syscall.SIGKILL) }) }
func (a *remoteAttempt) Interrupt() { a.intOnce.Do(func() { a.signalAll(syscall.SIGTERM) }) }

// runProcWorld drives a world of rank processes: on the operator's
// coordinator and agents, or (local) on a loopback coordinator and an
// embedded agent with np slots that live and die with this process.
func runProcWorld(np int, graph string, supervised, local bool, opts supOptions, oopts obsOptions, ropts remoteOptions) {
	if ropts.bin == "" {
		exe, err := os.Executable()
		if err != nil {
			fatalf("%v", err)
		}
		ropts.bin = exe
	}
	dir, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	placeLogf := logf
	if local {
		if !opts.verbose {
			placeLogf = func(string, ...any) {}
		}
		srv, err := coord.Serve("127.0.0.1:0", coord.ServerConfig{})
		if err != nil {
			fatalf("%v", err)
		}
		ropts.coord = srv.Addr()
		if err := startEmbeddedAgent(ropts.coord, ropts.job, np, placeLogf); err != nil {
			fatalf("%v", err)
		}
	}
	reg := obsv.NewRegistry(0)
	// The driver serves the debug endpoint; children can't share one address.
	startPprof(oopts.pprofAddr, reg)
	l := &remoteLauncher{opts: ropts, graph: graph, dir: dir, inject: opts.inject, placeLogf: placeLogf}
	l.passthrough = childArgs()
	if err := drive(l, np, supervised, opts, reg, nil); err != nil {
		runFailf(err, "%v", err)
	}
}

// childArgs walks the set flags and returns those the rank processes share,
// excluding everything that belongs to the driver itself.
func childArgs() []string {
	var passthrough []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "transport", "np", "rank", "supervise", "resume",
			"max-restarts", "backoff", "min-ranks", "hang", "chaos", "pprof-addr",
			"coord", "coord-job", "coord-epoch", "listen", "advertise",
			"host-agent", "agent-host", "slots", "remote-bin":
			// Driver-side flags: topology, supervision, chaos and -resume
			// (the driver's consent; core.Start decides) stay with the
			// parent, and so does -pprof-addr, which children cannot share;
			// -coord/-coord-job/-coord-epoch are re-issued per attempt with
			// that attempt's epoch; -listen/-advertise are per-host decisions
			// the agents make. -trace-dir and -report pass through: each rank
			// owns its trace file and rank 0's stdout carries the report.
		default:
			passthrough = append(passthrough, "-"+f.Name+"="+f.Value.String())
		}
	})
	return passthrough
}
