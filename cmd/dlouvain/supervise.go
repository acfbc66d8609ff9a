// The one driver every launched world runs under. A world is a
// supervisor.Launcher — goroutine ranks (supervisor.InprocLauncher) or rank
// processes spawned through a coordinator (remoteLauncher, remote.go) — and
// drive runs it as a single attempt, or under -supervise inside the
// internal/supervisor loop, so crashed, hung or interrupted worlds relaunch
// from the latest committed checkpoint without operator intervention.
package main

import (
	"fmt"
	"os"
	"os/signal"
	"strconv"
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

// supOptions carries the supervision flag values from main, the tuning in
// the supervisor's own types.
type supOptions struct {
	policy  supervisor.Policy
	hang    time.Duration
	inject  supervisor.Inject // the -chaos hook; nil injects nothing
	verbose bool
}

// chaosPoint is one fault of a -chaos spec: rank fails once its beacons
// reach phase.
type chaosPoint struct {
	item        string           // as written: kill=R@P or stop=R@P
	fault       supervisor.Fault // FaultKill (kill) or FaultHang (stop)
	rank, phase int
}

// chaosSpec is the parsed -chaos flag, a test-only failure the world's
// launcher injects: kill=R@P crashes rank R once its beacons reach phase P,
// stop=R@P freezes it there. Each fires on the first attempt only, so the
// run self-heals, unless every re-arms it on each attempt, which exercises
// the supervisor's give-up paths.
type chaosSpec struct {
	points []chaosPoint
	every  bool
}

// parseChaos parses a -chaos value: comma-separated kill=R@P, stop=R@P and
// every. validateFlags checks R against -np.
func parseChaos(s string) (chaosSpec, error) {
	var c chaosSpec
	if s == "" {
		return c, nil
	}
	for _, item := range strings.Split(s, ",") {
		if item == "every" {
			c.every = true
			continue
		}
		key, val, _ := strings.Cut(item, "=")
		r, ph, ok := strings.Cut(val, "@")
		rank, rerr := strconv.Atoi(r)
		phase, perr := strconv.Atoi(ph)
		p := chaosPoint{item: item, rank: rank, phase: phase}
		switch key {
		case "kill":
			p.fault = supervisor.FaultKill
		case "stop":
			p.fault = supervisor.FaultHang
		}
		if p.fault == supervisor.FaultNone || !ok || rerr != nil || perr != nil || phase < 0 {
			return chaosSpec{}, fmt.Errorf("-chaos %q: %q is not kill=R@P, stop=R@P or every", s, item)
		}
		c.points = append(c.points, p)
	}
	if len(c.points) == 0 {
		return chaosSpec{}, fmt.Errorf("-chaos %q names no kill=R@P or stop=R@P", s)
	}
	return c, nil
}

// inject is the spec as a launcher's injection hook, nil when it names no
// fault. A rank is struck at most once per attempt, by the first point it
// reaches: on its first phase-start or iteration beacon at or past the
// point's phase (a resumed attempt may start past it). Each strike is logged
// on stderr.
func (c chaosSpec) inject() supervisor.Inject {
	if len(c.points) == 0 {
		return nil
	}
	var mu sync.Mutex
	fired := make(map[[2]int]bool) // (attempt, rank) already struck
	return func(attempt int, b supervisor.Beacon) supervisor.Fault {
		if (attempt > 0 && !c.every) || (b.Kind != supervisor.KindPhaseStart && b.Kind != supervisor.KindIteration) {
			return supervisor.FaultNone
		}
		for _, p := range c.points {
			if b.Rank != p.rank || b.Phase < p.phase {
				continue
			}
			key := [2]int{attempt, b.Rank}
			mu.Lock()
			struck := fired[key]
			fired[key] = true
			mu.Unlock()
			if struck {
				return supervisor.FaultNone
			}
			logf("chaos: %s fires: rank %d at phase %d, attempt %d", p.item, b.Rank, b.Phase, attempt)
			return p.fault
		}
		return supervisor.FaultNone
	}
}

func (o supOptions) supervisorOptions(cfg core.Config) supervisor.Options {
	return supervisor.Options{
		Policy:        o.policy,
		Hang:          o.hang,
		HasCheckpoint: func() bool { return supervisor.HasCheckpoint(cfg.CheckpointDir) },
		Logf:          logf,
	}
}

// drive runs the world l launches to completion and returns its error. A run
// without supervision is exactly one attempt — no detector, no restart;
// under supervision the same launcher sits inside the supervisor's loop.
// This is the only place signals, restart bookkeeping and the beacon display
// are wired: SIGTERM/SIGINT asks the running attempt to checkpoint at the
// next phase boundary and stop (a second signal aborts, see trapInterrupt).
func drive(l supervisor.Launcher, np int, resume, supervised bool, opts supOptions, cfg core.Config, reg *obsv.Registry, postMortem func(rank int) []string) error {
	stop := make(chan struct{})
	trapInterrupt(func(os.Signal) {
		logf("interrupt: checkpointing at the next phase boundary")
		close(stop)
	})
	if !supervised {
		att, err := l.Launch(supervisor.LaunchSpec{Ranks: np, Resume: resume}, func(supervisor.Beacon) {})
		if err != nil {
			return err
		}
		go func() { <-stop; att.Interrupt() }()
		return att.Wait()
	}
	sopts := opts.supervisorOptions(cfg)
	sopts.PostMortem = postMortem
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
	sopts.OnBeacon = func(b supervisor.Beacon) {
		reg.RecordEvent("beacon", string(b.Kind), map[string]float64{
			"rank": float64(b.Rank), "phase": float64(b.Phase),
			"iter": float64(b.Iteration), "q": b.Modularity,
		})
		if opts.verbose {
			logf("beacon %+v", b)
		}
	}
	sup := supervisor.New(l, sopts)
	go func() { <-stop; sup.Interrupt() }()
	return sup.Run(np, resume)
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
// In-process worlds: supervisor.InprocLauncher runs the ranks; inprocObserver
// is what only the CLI adds to them — per-attempt tracers, communicator
// options and registry counters.

type inprocObserver struct {
	commOpts []mpi.CommOption
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

// postMortem renders what a hung world's rank last saw in its tracer: the
// still-open span chain (where it is stuck) and the most recently completed
// spans (what it finished on the way there). Wired into
// supervisor.Options.PostMortem.
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

// runInprocWorld runs the ranks as goroutines of this process and reports
// the completed attempt's result.
func runInprocWorld(path string, hdr gio.Header, np int, cfg core.Config, edgeBal, resume, supervised bool, outPath, truthPath string, commOpts []mpi.CommOption, opts supOptions, oopts obsOptions) {
	reg := obsv.NewRegistry(0)
	startPprof(oopts.pprofAddr, reg)
	l := &inprocObserver{commOpts: commOpts, obs: oopts, reg: reg}
	launcher := &supervisor.InprocLauncher{
		Config: cfg,
		Body: func(c *mpi.Comm, cfg core.Config, resume bool) (*core.Result, error) {
			return rankBody(path, hdr, cfg, edgeBal, resume, opts.verbose)(c)
		},
		Comm:   l.comm,
		Inject: opts.inject,
	}
	err := drive(launcher, np, resume, supervised, opts, cfg, reg, l.postMortem)
	reg.RecordGenerationCounters()
	// Traces flush even on failure: the surviving files describe the last
	// attempt, and a failed rank's ring tail is the post-mortem evidence the
	// traces exist for.
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
