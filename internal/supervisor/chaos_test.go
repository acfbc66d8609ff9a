package supervisor_test

// Chaos suite: drive the real distributed Louvain pipeline on the shipped
// in-process launcher under a Supervisor, injecting crashes and hangs at
// deterministic points in the run (beacons, not wall-clock) through the
// launcher's Inject hook, and assert the supervised run converges to the
// bit-identical result of an undisturbed one.

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distlouvain/internal/core"
	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
	"distlouvain/internal/obsv"
	"distlouvain/internal/supervisor"
)

// chaosRig is one supervised in-process world of the real pipeline: its
// launcher, the specs the supervisor launched, the latest attempt's rank
// tracers (when traced) and a generation-scoped traffic registry.
type chaosRig struct {
	l   *supervisor.InprocLauncher
	reg *obsv.Registry

	mu      sync.Mutex
	specs   []supervisor.LaunchSpec
	tracers []*obsv.Tracer
}

func newChaosRig(n int64, edges []graph.RawEdge, cfg core.Config, traced bool, inject supervisor.Inject) *chaosRig {
	rig := &chaosRig{reg: obsv.NewRegistry(0)}
	cfg.GatherOutput = true
	rig.l = &supervisor.InprocLauncher{
		Config: cfg,
		Inject: inject,
		Body: func(c *mpi.Comm, cfg core.Config, resume bool) (*core.Result, error) {
			if resume {
				return core.Resume(c, cfg.CheckpointDir, cfg)
			}
			lo, hi := gio.SegmentRange(int64(len(edges)), c.Rank(), c.Size())
			dg, err := dgraph.Build(c, n, edges[lo:hi], nil)
			if err != nil {
				return nil, err
			}
			return core.Run(dg, cfg)
		},
		Comm: func(spec supervisor.LaunchSpec, r int, ep mpi.Transport) *mpi.Comm {
			c := mpi.NewComm(ep)
			if traced {
				tr := obsv.NewTracer(r, obsv.DefaultCapacity)
				c.SetTracer(tr)
				rig.mu.Lock()
				if r == 0 {
					rig.tracers = make([]*obsv.Tracer, spec.Ranks)
				}
				rig.tracers[r] = tr
				rig.mu.Unlock()
			}
			if r == 0 {
				rig.reg.AttachCounters("mpi.rank0", func() map[string]int64 {
					return c.Stats().Snapshot().Counters()
				})
			}
			return c
		},
	}
	return rig
}

// options is the supervision every chaos test runs under. The graphs here
// iterate in well under a millisecond, so even a 60ms hang floor is dozens
// of missed beacons; it stays comfortably above a loaded machine's
// checkpoint-write stall, because a false-positive condemnation inserts a
// spurious generation and breaks the per-generation assertions below.
func (rig *chaosRig) options(t *testing.T, cfg core.Config) supervisor.Options {
	return supervisor.Options{
		Policy:        supervisor.Policy{MaxRestarts: 5, BaseBackoff: time.Millisecond, MinRanks: 1},
		Hang:          60 * time.Millisecond,
		HasCheckpoint: func() bool { return supervisor.HasCheckpoint(cfg.CheckpointDir) },
		Logf:          t.Logf,
		OnAttempt: func(spec supervisor.LaunchSpec) {
			rig.mu.Lock()
			rig.specs = append(rig.specs, spec)
			rig.mu.Unlock()
		},
		// Each generation freezes its own traffic before the next begins.
		OnRestart: func(int, int, bool, error) {
			rig.reg.RecordGenerationCounters()
			rig.reg.BeginGeneration()
		},
	}
}

// run supervises the world from p ranks to completion and returns rank 0's
// result of the attempt that completed, plus the specs the supervisor
// launched.
func (rig *chaosRig) run(t *testing.T, p int, opt supervisor.Options) (*core.Result, []supervisor.LaunchSpec) {
	t.Helper()
	if err := supervisor.New(rig.l, opt).Run(p, false); err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	rig.reg.RecordGenerationCounters()
	res, _ := rig.l.Result()
	if res == nil {
		t.Fatal("supervisor reported success but no rank-0 result was recorded")
	}
	rig.mu.Lock()
	defer rig.mu.Unlock()
	return res, slices.Clone(rig.specs)
}

// rankTracer returns the most recent attempt's tracer for one rank.
func (rig *chaosRig) rankTracer(rank int) *obsv.Tracer {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	if rank < 0 || rank >= len(rig.tracers) {
		return nil
	}
	return rig.tracers[rank]
}

// postMortem mirrors the cmd/dlouvain in-process observer: a hung world's
// rank's open span chain plus its most recently completed spans.
func (rig *chaosRig) postMortem(rank int) []string {
	tr := rig.rankTracer(rank)
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

// superviseChaos runs an untraced supervised world with the given hook.
func superviseChaos(t *testing.T, p int, cfg core.Config, n int64, edges []graph.RawEdge,
	inject supervisor.Inject) (*core.Result, []supervisor.LaunchSpec) {
	t.Helper()
	rig := newChaosRig(n, edges, cfg, false, inject)
	return rig.run(t, p, rig.options(t, cfg))
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

// firstIteration reports whether b is rank's first iteration of phase.
func firstIteration(b supervisor.Beacon, rank, phase int) bool {
	return b.Rank == rank && b.Kind == supervisor.KindIteration && b.Phase == phase && b.Iteration == 1
}

// TestChaosKillMidPhase SIGKILL-equivalent: rank 1's transport dies at the
// first iteration of phase 2 (after the phase-0 checkpoint committed). The
// supervisor must resume from that checkpoint and converge identically.
func TestChaosKillMidPhase(t *testing.T) {
	n, edges, want := chaosGraph(t)
	cfg := core.Baseline()
	cfg.CheckpointDir = t.TempDir()

	got, specs := superviseChaos(t, 3, cfg, n, edges, func(attempt int, b supervisor.Beacon) supervisor.Fault {
		if attempt == 0 && firstIteration(b, 1, 2) {
			return supervisor.FaultKill
		}
		return supervisor.FaultNone
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
	got, specs := superviseChaos(t, 3, cfg, n, edges, func(attempt int, b supervisor.Beacon) supervisor.Fault {
		if attempt == 0 && b.Rank == 2 && b.Kind == supervisor.KindPhaseStart && b.Phase == 2 {
			hung.Store(true)
			return supervisor.FaultHang
		}
		return supervisor.FaultNone
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

	got, specs := superviseChaos(t, 3, cfg, n, edges, func(attempt int, b supervisor.Beacon) supervisor.Fault {
		if attempt == 0 && firstIteration(b, 0, 2) || attempt == 1 && firstIteration(b, 2, 2) {
			return supervisor.FaultKill
		}
		return supervisor.FaultNone
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

	got, specs := superviseChaos(t, 3, cfg, n, edges, func(attempt int, b supervisor.Beacon) supervisor.Fault {
		if attempt == 0 && firstIteration(b, 0, 0) {
			return supervisor.FaultKill
		}
		return supervisor.FaultNone
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

	var hung atomic.Bool
	rig := newChaosRig(n, edges, cfg, true, func(attempt int, b supervisor.Beacon) supervisor.Fault {
		if attempt == 0 && b.Rank == 2 && b.Kind == supervisor.KindPhaseStart && b.Phase == 2 {
			hung.Store(true)
			return supervisor.FaultHang
		}
		return supervisor.FaultNone
	})
	opt := rig.options(t, cfg)
	var logMu sync.Mutex
	var logs []string
	opt.Logf = func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
		t.Logf(format, args...)
	}
	opt.PostMortem = rig.postMortem
	got, _ := rig.run(t, 3, opt)
	if !hung.Load() {
		t.Fatal("hang injection never fired")
	}
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
	rep := obsv.BuildReport(rig.rankTracer(0).Snapshot())
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
	for _, rec := range rig.reg.Records() {
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

	got, specs := superviseChaos(t, 3, cfg, n, edges, func(attempt int, b supervisor.Beacon) supervisor.Fault {
		// Kill every 3-rank attempt once it reaches phase 2 (the phase-0
		// checkpoint has committed by then); 2-rank attempts run clean.
		if firstIteration(b, 2, 2) {
			return supervisor.FaultKill
		}
		return supervisor.FaultNone
	})
	identicalOutcome(t, "degraded resume", got, want)
	last := specs[len(specs)-1]
	if last.Ranks != 2 || !last.Resume {
		t.Fatalf("final spec = %+v, want an elastic resume at 2 ranks", last)
	}
}
