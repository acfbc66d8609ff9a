package supervisor_test

// Chaos suite: drive the real distributed Louvain pipeline under a
// Supervisor while injecting crashes and hangs at deterministic points in
// the run (progress milestones, not wall-clock), and assert the supervised
// run converges to the bit-identical result of an undisturbed one.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distlouvain/internal/ckpt"
	"distlouvain/internal/core"
	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
	"distlouvain/internal/obsv"
	"distlouvain/internal/supervisor"
)

// chaosAction is what the injection hook tells a rank to do at a milestone.
type chaosAction int

const (
	chaosNone chaosAction = iota
	chaosKill             // FaultTransport.Kill: abrupt simulated crash
	chaosHang             // block inside the progress hook until the world dies
)

// chaosLauncher runs real core ranks on an in-process world, with an inject
// hook consulted at every progress milestone. Injection is deterministic in
// (attempt, rank, event) — no wall-clock calibration anywhere.
type chaosLauncher struct {
	n      int64
	edges  []graph.RawEdge
	cfg    core.Config
	inject func(attempt, rank int, ev core.ProgressEvent) chaosAction
	traced bool           // wire a span tracer per rank (post-mortem tests)
	reg    *obsv.Registry // generation-scoped traffic registry (may be nil)

	mu      sync.Mutex
	result  *core.Result
	specs   []supervisor.LaunchSpec
	tracers []*obsv.Tracer // current attempt's tracers when traced
}

// rankTracer returns the most recent attempt's tracer for one rank.
func (l *chaosLauncher) rankTracer(rank int) *obsv.Tracer {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rank < 0 || rank >= len(l.tracers) {
		return nil
	}
	return l.tracers[rank]
}

// postMortem mirrors the cmd/dlouvain in-process launcher: the condemned
// rank's open span chain plus its most recently completed spans.
func (l *chaosLauncher) postMortem(rank int) []string {
	tr := l.rankTracer(rank)
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

type chaosAttempt struct {
	world     *mpi.InprocWorld
	killCh    chan struct{} // closed on Kill: unblocks chaosHang hooks
	interrupt atomic.Bool
	done      chan struct{}
	err       error
	killOnce  sync.Once
}

func (a *chaosAttempt) Wait() error { <-a.done; return a.err }
func (a *chaosAttempt) Kill() {
	a.killOnce.Do(func() {
		close(a.killCh)
		a.world.Close()
	})
}
func (a *chaosAttempt) Interrupt() { a.interrupt.Store(true) }

func (l *chaosLauncher) Launch(spec supervisor.LaunchSpec, beacons func(supervisor.Beacon)) (supervisor.Attempt, error) {
	world, err := mpi.NewInprocWorld(spec.Ranks)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.specs = append(l.specs, spec)
	l.mu.Unlock()
	a := &chaosAttempt{world: world, killCh: make(chan struct{}), done: make(chan struct{})}
	go l.run(a, spec, beacons)
	return a, nil
}

func (l *chaosLauncher) run(a *chaosAttempt, spec supervisor.LaunchSpec, beacons func(supervisor.Beacon)) {
	defer close(a.done)
	defer a.world.Close()
	p := spec.Ranks
	var tracers []*obsv.Tracer
	if l.traced {
		tracers = make([]*obsv.Tracer, p)
		for r := range tracers {
			tracers[r] = obsv.NewTracer(r, obsv.DefaultCapacity)
		}
		l.mu.Lock()
		l.tracers = tracers
		l.mu.Unlock()
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ft := mpi.NewFaultTransport(a.world.Endpoint(r), mpi.FaultPlan{})
			var tr *obsv.Tracer
			if l.traced {
				tr = tracers[r]
			}
			emit := supervisor.CoreProgressTraced(r, 0, tr, beacons)
			cfg := l.cfg
			cfg.GatherOutput = true
			cfg.Interrupted = a.interrupt.Load
			cfg.Tracer = tr
			cfg.Progress = func(ev core.ProgressEvent) {
				switch l.inject(spec.Attempt, r, ev) {
				case chaosKill:
					ft.Kill()
				case chaosHang:
					<-a.killCh // beacon-silent until the supervisor kills us
				}
				emit(ev)
			}
			c := mpi.NewComm(ft)
			c.SetTracer(tr)
			if r == 0 {
				l.reg.AttachCounters("mpi.rank0", func() map[string]int64 {
					return c.Stats().Snapshot().Counters()
				})
			}
			var res *core.Result
			var err error
			if spec.Resume {
				res, err = core.Resume(c, cfg.CheckpointDir, cfg)
			} else {
				lo, hi := gio.SegmentRange(int64(len(l.edges)), r, p)
				var dg *dgraph.DistGraph
				dg, err = dgraph.Build(c, l.n, l.edges[lo:hi], nil)
				if err == nil {
					res, err = core.Run(dg, cfg)
				}
			}
			if err != nil {
				errs[r] = err
				a.world.Close()
				return
			}
			if r == 0 {
				l.mu.Lock()
				l.result = res
				l.mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	l.reg.RecordGenerationCounters()
	a.err = chaosWorldError(errs)
}

// chaosWorldError mirrors the launcher error selection in cmd/dlouvain:
// fatal beats retryable beats ErrClosed teardown collateral.
func chaosWorldError(errs []error) error {
	var retry, collateral error
	for r, e := range errs {
		if e == nil {
			continue
		}
		wrapped := fmt.Errorf("rank %d: %w", r, e)
		switch {
		case chaosRetryable(e):
			if retry == nil {
				retry = wrapped
			}
		case errors.Is(e, mpi.ErrClosed):
			if collateral == nil {
				collateral = wrapped
			}
		default:
			return wrapped
		}
	}
	if retry != nil {
		return retry
	}
	return collateral
}

func chaosRetryable(err error) bool {
	var pl *mpi.ErrPeerLost
	return errors.As(err, &pl) ||
		errors.Is(err, mpi.ErrKilled) ||
		errors.Is(err, os.ErrDeadlineExceeded) ||
		errors.Is(err, core.ErrInterrupted)
}

// superviseChaos runs the supervised world and returns rank 0's result from
// the surviving attempt plus the launch specs the supervisor issued.
func superviseChaos(t *testing.T, p int, cfg core.Config, n int64, edges []graph.RawEdge,
	inject func(attempt, rank int, ev core.ProgressEvent) chaosAction) (*core.Result, []supervisor.LaunchSpec) {
	t.Helper()
	l := &chaosLauncher{n: n, edges: edges, cfg: cfg, inject: inject}
	sup := supervisor.New(l, supervisor.Options{
		Policy: supervisor.Policy{
			MaxRestarts: 5,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  5 * time.Millisecond,
			MinRanks:    1,
		},
		// The graphs here iterate in well under a millisecond, so even the
		// clamped 60ms window is dozens of missed beacons. Keep the floor
		// comfortably above a loaded machine's checkpoint-write stall: a
		// false-positive condemnation inserts a spurious generation and
		// breaks the per-generation assertions below.
		Detector:      supervisor.DetectorConfig{MinWindow: 60 * time.Millisecond, MaxWindow: 200 * time.Millisecond},
		Poll:          5 * time.Millisecond,
		Retryable:     chaosRetryable,
		HasCheckpoint: func() bool { _, err := ckpt.ReadManifest(cfg.CheckpointDir); return err == nil },
		Logf:          t.Logf,
	})
	if err := sup.Run(p, false); err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.result == nil {
		t.Fatal("supervisor reported success but no rank-0 result was recorded")
	}
	return l.result, append([]supervisor.LaunchSpec(nil), l.specs...)
}

// identicalOutcome asserts the supervised run retraced the undisturbed run
// bit-for-bit.
func identicalOutcome(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if !slices.Equal(got.GlobalComm, want.GlobalComm) {
		t.Fatalf("%s: assignment differs from undisturbed run", label)
	}
	if math.Float64bits(got.Modularity) != math.Float64bits(want.Modularity) {
		t.Fatalf("%s: modularity %v != undisturbed %v", label, got.Modularity, want.Modularity)
	}
	if got.Communities != want.Communities {
		t.Fatalf("%s: %d communities, undisturbed found %d", label, got.Communities, want.Communities)
	}
}

// chaosGraph returns a graph whose baseline run has at least 3 phases, so a
// committed checkpoint exists for chaos in phase 2 to resume from: a
// snapshot is committed one boundary after it is taken, so the phase-0
// snapshot is committed once phase 1 ends.
func chaosGraph(t *testing.T) (int64, []graph.RawEdge, *core.Result) {
	t.Helper()
	n, edges := gen.ErdosRenyi(300, 1500, 5)
	want, err := core.RunOnEdges(3, n, edges, core.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Phases) < 3 {
		t.Fatalf("baseline converged in %d phase(s); chaos needs a committed phase boundary", len(want.Phases))
	}
	return n, edges, want
}

// TestChaosKillMidPhase SIGKILL-equivalent: rank 1's transport dies at the
// first iteration of phase 2 (after the phase-0 checkpoint committed). The
// supervisor must resume from that checkpoint and converge identically.
func TestChaosKillMidPhase(t *testing.T) {
	n, edges, want := chaosGraph(t)
	cfg := core.Baseline()
	cfg.CheckpointDir = t.TempDir()

	got, specs := superviseChaos(t, 3, cfg, n, edges, func(attempt, rank int, ev core.ProgressEvent) chaosAction {
		if attempt == 0 && rank == 1 && ev.Kind == core.ProgressIteration && ev.Phase == 2 && ev.Iteration == 1 {
			return chaosKill
		}
		return chaosNone
	})
	identicalOutcome(t, "kill mid-phase", got, want)
	if len(specs) != 2 {
		t.Fatalf("attempts = %d, want 2", len(specs))
	}
	if !specs[1].Resume {
		t.Fatal("relaunch after the phase-0 checkpoint must resume, not restart")
	}
}

// TestChaosHangAtCollective: rank 2 freezes at the start of phase 2 — its
// peers block inside the phase's collectives, so no rank can make progress
// and no error ever surfaces. Only the beacon-silence detector can notice;
// it must kill the world and resume from the checkpoint.
func TestChaosHangAtCollective(t *testing.T) {
	n, edges, want := chaosGraph(t)
	cfg := core.Baseline()
	cfg.CheckpointDir = t.TempDir()

	var hung atomic.Bool
	got, specs := superviseChaos(t, 3, cfg, n, edges, func(attempt, rank int, ev core.ProgressEvent) chaosAction {
		if attempt == 0 && rank == 2 && ev.Kind == core.ProgressPhaseStart && ev.Phase == 2 {
			hung.Store(true)
			return chaosHang
		}
		return chaosNone
	})
	identicalOutcome(t, "hang at collective", got, want)
	if !hung.Load() {
		t.Fatal("hang injection never fired")
	}
	if len(specs) != 2 || !specs[1].Resume {
		t.Fatalf("specs = %+v, want a single resuming relaunch", specs)
	}
}

// TestChaosFlapping kill→restart→kill: the world dies on attempt 0 (phase 2)
// and again on attempt 1 (phase 2, different rank), and must still converge
// identically on attempt 2 with no operator input.
func TestChaosFlapping(t *testing.T) {
	n, edges, want := chaosGraph(t)
	cfg := core.Baseline()
	cfg.CheckpointDir = t.TempDir()

	got, specs := superviseChaos(t, 3, cfg, n, edges, func(attempt, rank int, ev core.ProgressEvent) chaosAction {
		if ev.Kind != core.ProgressIteration || ev.Phase != 2 {
			return chaosNone
		}
		switch {
		case attempt == 0 && rank == 0 && ev.Iteration == 1:
			return chaosKill
		case attempt == 1 && rank == 2 && ev.Iteration == 1:
			return chaosKill
		}
		return chaosNone
	})
	identicalOutcome(t, "flapping", got, want)
	if len(specs) != 3 {
		t.Fatalf("attempts = %d, want 3 (kill, kill again, converge)", len(specs))
	}
	if !specs[1].Resume || !specs[2].Resume {
		t.Fatalf("specs = %+v, want both relaunches to resume", specs)
	}
}

// TestChaosKillBeforeFirstCheckpoint: a crash in phase 0 leaves nothing to
// resume; the supervisor must relaunch from scratch and still converge
// identically.
func TestChaosKillBeforeFirstCheckpoint(t *testing.T) {
	n, edges, want := chaosGraph(t)
	cfg := core.Baseline()
	cfg.CheckpointDir = t.TempDir()

	got, specs := superviseChaos(t, 3, cfg, n, edges, func(attempt, rank int, ev core.ProgressEvent) chaosAction {
		if attempt == 0 && rank == 0 && ev.Kind == core.ProgressIteration && ev.Phase == 0 && ev.Iteration == 1 {
			return chaosKill
		}
		return chaosNone
	})
	identicalOutcome(t, "kill before first checkpoint", got, want)
	if len(specs) != 2 {
		t.Fatalf("attempts = %d, want 2", len(specs))
	}
	if specs[1].Resume {
		t.Fatal("no checkpoint existed; the relaunch must restart from scratch")
	}
}

// TestChaosPostMortemNamesDeathSite: when a traced rank hangs, the
// supervisor's post-mortem dump must name the phase the rank died in (its
// open span chain), the relaunch must resume from the checkpoint, and the
// surviving attempt's tracer must still yield a usable §V-A report — the
// trace pipeline has to survive the kill/resume cycle, not just clean runs.
// It also pins per-generation traffic accounting end to end: each
// generation's frozen counters reflect only that generation's traffic.
func TestChaosPostMortemNamesDeathSite(t *testing.T) {
	n, edges, want := chaosGraph(t)
	cfg := core.Baseline()
	cfg.CheckpointDir = t.TempDir()

	reg := obsv.NewRegistry(0)
	var hung atomic.Bool
	l := &chaosLauncher{
		n: n, edges: edges, cfg: cfg, traced: true, reg: reg,
		inject: func(attempt, rank int, ev core.ProgressEvent) chaosAction {
			if attempt == 0 && rank == 2 && ev.Kind == core.ProgressPhaseStart && ev.Phase == 2 {
				hung.Store(true)
				return chaosHang
			}
			return chaosNone
		},
	}
	var logMu sync.Mutex
	var logs []string
	sup := supervisor.New(l, supervisor.Options{
		Policy: supervisor.Policy{
			MaxRestarts: 5,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  5 * time.Millisecond,
			MinRanks:    1,
		},
		// 60ms floor for the same false-positive margin as superviseChaos.
		Detector:      supervisor.DetectorConfig{MinWindow: 60 * time.Millisecond, MaxWindow: 200 * time.Millisecond},
		Poll:          5 * time.Millisecond,
		Retryable:     chaosRetryable,
		HasCheckpoint: func() bool { _, err := ckpt.ReadManifest(cfg.CheckpointDir); return err == nil },
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
			t.Logf(format, args...)
		},
		PostMortem: l.postMortem,
		OnRestart:  func(restarts, ranks int, resume bool, cause error) { reg.BeginGeneration() },
	})
	if err := sup.Run(3, false); err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if !hung.Load() {
		t.Fatal("hang injection never fired")
	}
	l.mu.Lock()
	got := l.result
	l.mu.Unlock()
	identicalOutcome(t, "post-mortem trace", got, want)

	logMu.Lock()
	joined := strings.Join(logs, "\n")
	logMu.Unlock()
	// The rank hung inside phase 2's progress hook, so its open span chain
	// is "run/phase[2]" — the dump must name the death site, not just say
	// "rank 2 went silent".
	if !strings.Contains(joined, "post-mortem rank 2") {
		t.Fatalf("no post-mortem for the hung rank in supervisor logs:\n%s", joined)
	}
	if !strings.Contains(joined, "open: run/phase[2]") {
		t.Fatalf("post-mortem does not name the phase the rank died in:\n%s", joined)
	}
	// The hung rank's trace still holds completed phase-0 work in its tail.
	if !strings.Contains(joined, "recent: ") {
		t.Fatalf("post-mortem has no recent-span evidence:\n%s", joined)
	}

	// The report survives restart-with-resume: the surviving attempt's
	// rank-0 tracer covers resume-load plus the remaining phases.
	rep := obsv.BuildReport(l.rankTracer(0).Snapshot())
	if rep.Total <= 0 {
		t.Fatal("surviving attempt's run span did not complete")
	}
	if len(rep.Phases) == 0 {
		t.Fatal("report after resume has no phase rows")
	}
	for _, pb := range rep.Phases {
		if acc := pb.Accounted(); acc > pb.Total {
			t.Fatalf("phase %d after resume: accounted %v exceeds wall %v", pb.Phase, acc, pb.Total)
		}
	}
	if rep.Overall.Cat[obsv.CatCheckpoint] <= 0 {
		t.Fatal("resume-load left no checkpoint-category time in the report")
	}
	var buf strings.Builder
	rep.Format(&buf)
	if !strings.Contains(buf.String(), "all") {
		t.Fatalf("report missing the all row:\n%s", buf.String())
	}

	// Per-generation traffic: each generation froze its own (positive)
	// counter deltas — generation 1's figures must not include the killed
	// generation 0's traffic (they'd be impossibly large: generation 0 ran
	// phase 0 from scratch; generation 1 only resumed the cheap tail).
	var perGen []float64
	for _, rec := range reg.Records() {
		if rec.Kind == "counters" && rec.Name == "mpi.rank0" {
			perGen = append(perGen, rec.Fields["coll_bytes"])
		}
	}
	if len(perGen) != 2 {
		t.Fatalf("frozen counter records for %d generations, want 2", len(perGen))
	}
	for g, v := range perGen {
		if v <= 0 {
			t.Fatalf("generation %d recorded %.0f collective bytes, want > 0", g, v)
		}
	}
}

// TestChaosDegradedResume: a world that keeps dying at 3 ranks degrades to 2
// and must still produce the identical answer via elastic resume.
func TestChaosDegradedResume(t *testing.T) {
	n, edges, want := chaosGraph(t)
	cfg := core.Baseline()
	cfg.CheckpointDir = t.TempDir()

	got, specs := superviseChaos(t, 3, cfg, n, edges, func(attempt, rank int, ev core.ProgressEvent) chaosAction {
		// Kill every 3-rank attempt once it reaches phase 2 (the phase-0
		// checkpoint has committed by then); 2-rank attempts run clean.
		if rank == 2 && ev.Kind == core.ProgressIteration && ev.Phase == 2 && ev.Iteration == 1 {
			return chaosKill
		}
		return chaosNone
	})
	identicalOutcome(t, "degraded resume", got, want)
	last := specs[len(specs)-1]
	if last.Ranks != 2 || !last.Resume {
		t.Fatalf("final spec = %+v, want an elastic resume at 2 ranks", last)
	}
}
