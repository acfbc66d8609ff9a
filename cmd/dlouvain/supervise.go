// Self-healing supervision for dlouvain: -supervise wraps the run in the
// internal/supervisor loop, so crashed, hung or interrupted worlds relaunch
// from the latest committed checkpoint without operator intervention.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"distlouvain/internal/core"
	"distlouvain/internal/gio"
	"distlouvain/internal/mpi"
	"distlouvain/internal/obsv"
	"distlouvain/internal/supervisor"
)

// supOptions carries the supervision flag values from main.
type supOptions struct {
	maxRestarts int
	backoff     time.Duration
	minRanks    int
	hangMin     time.Duration
	hangMax     time.Duration
	poll        time.Duration
	chaos       chaosSpec
	verbose     bool
}

// chaosSpec configures first-attempt process-level fault injection in
// supervised tcp-local runs: when the target rank's beacons reach the target
// phase it is SIGKILLed (crash) or SIGSTOPped (hang without connection
// loss). Rank -1 disables.
type chaosSpec struct {
	killRank, killPhase int
	stopRank, stopPhase int
	everyAttempt        bool // re-arm on every attempt (budget-exhaustion tests)
}

func (c chaosSpec) active() bool { return c.killRank >= 0 || c.stopRank >= 0 }

// armed reports whether chaos (and fault-injection flags) fire on the given
// attempt: normally the first one only, so the run self-heals; with
// everyAttempt the failure recurs until the supervisor gives up.
func (c chaosSpec) armed(attempt int) bool {
	return attempt == 0 || c.everyAttempt
}

func (o supOptions) supervisorOptions(cfg core.Config) supervisor.Options {
	return supervisor.Options{
		Policy: supervisor.Policy{
			MaxRestarts: o.maxRestarts,
			BaseBackoff: o.backoff,
			MinRanks:    o.minRanks,
			Seed:        cfg.Seed,
		},
		Detector: supervisor.DetectorConfig{
			MinWindow: o.hangMin,
			MaxWindow: o.hangMax,
		},
		Poll:          o.poll,
		Retryable:     retryableRunErr,
		HasCheckpoint: func() bool { return supervisor.HasCheckpoint(cfg.CheckpointDir) },
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "dlouvain: "+format+"\n", args...)
		},
	}
}

// retryableRunErr classifies a world failure: an aggregated child failure
// carries its own verdict (derived from the exit codes); everything else is
// supervisor.Retryable's call.
func retryableRunErr(err error) bool {
	var ce *childrenError
	if errors.As(err, &ce) {
		return ce.retryable
	}
	return supervisor.Retryable(err)
}

// trapInterrupt installs the two-stage SIGTERM/SIGINT handler: the first
// signal invokes onFirst (request a phase-boundary checkpoint and retryable
// exit), a second signal aborts the process immediately.
func trapInterrupt(onFirst func(sig os.Signal)) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, syscall.SIGTERM, os.Interrupt)
	go func() {
		sig := <-ch
		onFirst(sig)
		<-ch
		fmt.Fprintln(os.Stderr, "dlouvain: second signal, aborting")
		os.Exit(1)
	}()
}

// ---------------------------------------------------------------------------
// In-process supervised worlds: supervisor.InprocLauncher runs the ranks;
// inprocObserver is what only the CLI adds to them — per-attempt tracers,
// transport fault injection, communicator options and registry counters.

type inprocObserver struct {
	commOpts []mpi.CommOption
	fault    mpi.FaultPlan // transport fault injection (see faultAll)
	faultAll bool          // inject on every attempt, not just the first
	obs      obsOptions
	reg      *obsv.Registry // generation-scoped metrics timeline (may be nil)

	mu      sync.Mutex
	tracers []*obsv.Tracer // current attempt's per-rank tracers (post-mortem source)
}

// comm is the launcher's per-rank hook (supervisor.InprocLauncher.Comm).
func (l *inprocObserver) comm(spec supervisor.LaunchSpec, r int, tp mpi.Transport) *mpi.Comm {
	tr := l.obs.newTracer(r)
	l.mu.Lock()
	if r == 0 {
		// Fresh tracers per attempt: a relaunched world's trace must not
		// carry its predecessor's spans. The previous attempt's tracers stay
		// readable (postMortem races the swap harmlessly — tracers are
		// concurrency-safe).
		l.tracers = make([]*obsv.Tracer, spec.Ranks)
	}
	l.tracers[r] = tr
	l.mu.Unlock()
	if (spec.Attempt == 0 || l.faultAll) && faultActive(l.fault) {
		fp := l.fault
		fp.Seed ^= uint64(r) * 0x9e3779b97f4a7c15
		tp = mpi.NewFaultTransport(tp, fp)
	}
	c := mpi.NewComm(tp, l.commOpts...)
	c.SetTracer(tr)
	if r == 0 {
		// Each attempt gets a fresh Comm, so re-attaching replaces the dead
		// generation's counter source with the live one.
		l.reg.AttachCounters("mpi.rank0", func() map[string]int64 {
			return c.Stats().Snapshot().Counters()
		})
	}
	return c
}

// rankTracers returns the most recent attempt's per-rank tracers.
func (l *inprocObserver) rankTracers() []*obsv.Tracer {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tracers
}

// postMortem renders what a condemned rank's tracer last saw: the still-open
// span chain (where it is stuck) and the most recently completed spans (what
// it finished on the way there). Wired into supervisor.Options.PostMortem.
func (l *inprocObserver) postMortem(rank int) []string {
	var tr *obsv.Tracer
	l.mu.Lock()
	if rank >= 0 && rank < len(l.tracers) {
		tr = l.tracers[rank]
	}
	l.mu.Unlock()
	if tr == nil {
		return nil
	}
	var lines []string
	if p := tr.Path(); p != "" {
		lines = append(lines, "open: "+p)
	}
	for _, s := range tr.Tail(8) {
		lines = append(lines, "recent: "+s.Label())
	}
	return lines
}

// superviseInproc runs the supervised in-process world and reports the
// surviving attempt's result.
func superviseInproc(path string, hdr gio.Header, np int, cfg core.Config, edgeBal, resume bool, outPath, truthPath string, commOpts []mpi.CommOption, fault mpi.FaultPlan, opts supOptions, oopts obsOptions) {
	reg := obsv.NewRegistry(0)
	startPprof(oopts.pprofAddr, reg)
	l := &inprocObserver{
		commOpts: commOpts, fault: fault, faultAll: opts.chaos.everyAttempt,
		obs: oopts, reg: reg,
	}
	launcher := &supervisor.InprocLauncher{
		Config: cfg,
		Body: func(c *mpi.Comm, cfg core.Config, resume bool) (*core.Result, error) {
			return rankBody(path, hdr, cfg, edgeBal, resume, opts.verbose)(c)
		},
		Comm: l.comm,
	}
	sopts := opts.supervisorOptions(cfg)
	sopts.PostMortem = l.postMortem
	sopts.OnRestart = func(restarts, ranks int, resume bool, cause error) {
		reg.RecordGenerationCounters() // the failed attempt's traffic
		reg.BeginGeneration()
		var res float64
		if resume {
			res = 1
		}
		reg.RecordEvent("restart", "relaunch", map[string]float64{
			"restarts": float64(restarts), "ranks": float64(ranks), "resume": res,
		})
	}
	sup := supervisor.New(launcher, sopts)
	trapInterrupt(func(os.Signal) {
		fmt.Fprintln(os.Stderr, "dlouvain: interrupt: checkpointing at the next phase boundary")
		sup.Interrupt()
	})
	err := sup.Run(np, resume)
	reg.RecordGenerationCounters()
	// Traces flush even when the supervisor gives up: the surviving files
	// describe the last attempt, which is the one worth examining.
	oopts.flushTraces(l.rankTracers()...)
	if err != nil {
		runFailf(err, "%v", err)
	}
	res, ranks := launcher.Result()
	recordRunMetrics(reg, res)
	report(res, hdr, cfg, ranks, outPath, truthPath)
	if trs := l.rankTracers(); len(trs) > 0 {
		oopts.printReport(trs[0])
	}
}

// ---------------------------------------------------------------------------
// Child-process supervised worlds (tcp-local): each attempt spawns one OS
// process per rank in its own process group, beacons arrive over the TCP
// control channel, kill = SIGKILL.

type procLauncher struct {
	exe         string
	graph       string
	passthrough []string // shared child flags (variant, ckpt-dir, timeouts, ...)
	faultArgs   []string // fault-* flags, forwarded on armed attempts only
	chaos       chaosSpec
	logf        func(format string, args ...any)
}

type procAttempt struct {
	cmds []*exec.Cmd
	srv  *supervisor.BeaconServer
	done chan struct{}
	err  error

	killOnce sync.Once
	intOnce  sync.Once
}

func (a *procAttempt) Wait() error { <-a.done; return a.err }

func (a *procAttempt) Kill() {
	a.killOnce.Do(func() {
		for _, cmd := range a.cmds {
			if cmd.Process != nil {
				cmd.Process.Kill() // SIGKILL also fells SIGSTOPped children
			}
		}
	})
}

func (a *procAttempt) Interrupt() {
	a.intOnce.Do(func() {
		for _, cmd := range a.cmds {
			if cmd.Process != nil {
				cmd.Process.Signal(syscall.SIGTERM)
			}
		}
	})
}

func (l *procLauncher) Launch(spec supervisor.LaunchSpec, beacons func(supervisor.Beacon)) (supervisor.Attempt, error) {
	np := spec.Ranks
	addrs := make([]string, np)
	for r := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		addrs[r] = ln.Addr().String()
		ln.Close()
	}
	hostList := strings.Join(addrs, ",")

	a := &procAttempt{done: make(chan struct{})}
	sink := beacons
	if l.chaos.active() && l.chaos.armed(spec.Attempt) {
		var killOnce, stopOnce sync.Once
		sink = func(b supervisor.Beacon) {
			l.maybeChaos(&killOnce, &stopOnce, b)
			beacons(b)
		}
	}
	srv, err := supervisor.ListenBeacons("", sink)
	if err != nil {
		return nil, err
	}
	a.srv = srv

	cmds := make([]*exec.Cmd, np)
	for r := 0; r < np; r++ {
		args := []string{"-transport", "tcp", "-rank", fmt.Sprint(r), "-hosts", hostList}
		args = append(args, l.passthrough...)
		if l.chaos.armed(spec.Attempt) {
			args = append(args, l.faultArgs...)
		}
		if spec.Resume {
			args = append(args, "-resume")
		}
		args = append(args, l.graph)
		cmd := exec.Command(l.exe, args...)
		cmd.Env = append(os.Environ(), supervisor.EnvBeaconAddr+"="+srv.Addr())
		// A fresh process group: the supervising parent is the only signal
		// distributor, so a terminal Ctrl-C can't double-deliver to ranks.
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		if r == 0 {
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
		}
		if err := cmd.Start(); err != nil {
			a.cmds = cmds[:r]
			a.Kill()
			srv.Close()
			return nil, fmt.Errorf("spawn rank %d: %w", r, err)
		}
		cmds[r] = cmd
	}
	a.cmds = cmds
	go a.reap()
	return a, nil
}

// maybeChaos fires the configured process-level fault when the target rank's
// beacons reach the target phase. It runs on the beacon path, so injection
// is deterministic in terms of run progress, not wall-clock.
func (l *procLauncher) maybeChaos(killOnce, stopOnce *sync.Once, b supervisor.Beacon) {
	if b.PID == 0 || (b.Kind != supervisor.KindPhaseStart && b.Kind != supervisor.KindIteration) {
		return
	}
	if b.Rank == l.chaos.killRank && b.Phase >= l.chaos.killPhase {
		killOnce.Do(func() {
			l.logf("chaos: SIGKILL rank %d (pid %d) at phase %d", b.Rank, b.PID, b.Phase)
			syscall.Kill(b.PID, syscall.SIGKILL)
		})
	}
	if b.Rank == l.chaos.stopRank && b.Phase >= l.chaos.stopPhase {
		stopOnce.Do(func() {
			l.logf("chaos: SIGSTOP rank %d (pid %d) at phase %d", b.Rank, b.PID, b.Phase)
			syscall.Kill(b.PID, syscall.SIGSTOP)
		})
	}
}

// reap waits for every child and aggregates their exit statuses into one
// world error: nil when all succeed, retryable when every failure is
// retryable (exit 3) or signal-induced (crash/kill), fatal otherwise.
func (a *procAttempt) reap() {
	defer close(a.done)
	defer a.srv.Close()
	var fails []string
	retryable := true
	for r, cmd := range a.cmds {
		err := cmd.Wait()
		if err == nil {
			continue
		}
		fails = append(fails, fmt.Sprintf("rank %d: %v", r, err))
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			// Exit 3 is the retryable protocol code; a signal death
			// (ExitCode -1: SIGKILL, crash) is a lost peer, also retryable.
			if code := ee.ExitCode(); code != exitRetryable && code != -1 {
				retryable = false
			}
		} else {
			retryable = false
		}
	}
	if len(fails) > 0 {
		a.err = &childrenError{msg: strings.Join(fails, "; "), retryable: retryable}
	}
}

// childrenError aggregates child-process failures with an explicit
// retryability verdict derived from their exit codes.
type childrenError struct {
	msg       string
	retryable bool
}

func (e *childrenError) Error() string { return "world failed: " + e.msg }

// superviseLocalTCP supervises a tcp-local world of child rank processes.
func superviseLocalTCP(np int, graph string, cfg core.Config, resume bool, opts supOptions, oopts obsOptions) {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	reg := obsv.NewRegistry(0)
	startPprof(oopts.pprofAddr, reg)
	var passthrough, faultArgs []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "transport", "np", "rank", "hosts", "supervise", "resume",
			"max-restarts", "backoff", "min-ranks", "hang-min", "hang-max", "poll",
			"chaos-kill-rank", "chaos-kill-phase", "chaos-stop-rank", "chaos-stop-phase",
			"chaos-all-attempts", "pprof-addr":
			// supervision and topology flags stay with the parent; so does
			// -pprof-addr, which children cannot share. -trace-dir and
			// -report pass through: each rank owns its trace file and rank
			// 0's stdout carries the report.
		case "fault-seed", "fault-drop", "fault-dup", "fault-delay", "fault-kill-after":
			faultArgs = append(faultArgs, "-"+f.Name+"="+f.Value.String())
		default:
			passthrough = append(passthrough, "-"+f.Name+"="+f.Value.String())
		}
	})
	sopts := opts.supervisorOptions(cfg)
	sopts.OnRestart = func(restarts, ranks int, resume bool, cause error) {
		reg.BeginGeneration()
		var res float64
		if resume {
			res = 1
		}
		reg.RecordEvent("restart", "relaunch", map[string]float64{
			"restarts": float64(restarts), "ranks": float64(ranks), "resume": res,
		})
	}
	l := &procLauncher{
		exe: exe, graph: graph,
		passthrough: passthrough, faultArgs: faultArgs,
		chaos: opts.chaos, logf: sopts.Logf,
	}
	verbose := opts.verbose
	sopts.OnBeacon = func(b supervisor.Beacon) {
		reg.RecordEvent("beacon", string(b.Kind), map[string]float64{
			"rank": float64(b.Rank), "phase": float64(b.Phase),
			"iter": float64(b.Iteration), "q": b.Modularity,
		})
		if verbose {
			fmt.Fprintf(os.Stderr, "dlouvain: beacon %+v\n", b)
		}
	}
	sup := supervisor.New(l, sopts)
	trapInterrupt(func(os.Signal) {
		fmt.Fprintln(os.Stderr, "dlouvain: interrupt: checkpointing at the next phase boundary")
		sup.Interrupt()
	})
	if err := sup.Run(np, resume); err != nil {
		runFailf(err, "%v", err)
	}
	os.Exit(0)
}
