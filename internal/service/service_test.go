package service

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"distlouvain/internal/ckpt"
	"distlouvain/internal/core"
	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/mpi"
)

// writeGraph materializes a deterministic Erdős–Rényi graph for tests.
func writeGraph(t *testing.T, n, m int64, seed uint64) (string, int64) {
	t.Helper()
	nv, edges := gen.ErdosRenyi(n, m, seed)
	path := filepath.Join(t.TempDir(), "graph.bin")
	if err := gio.WriteBinary(path, nv, edges); err != nil {
		t.Fatalf("write graph: %v", err)
	}
	return path, nv
}

// refRun computes the reference result with a direct 1-rank world — the
// service must reproduce it bit-identically at any world size.
func refRun(t *testing.T, path string, n int64, cfg core.Config) *core.Result {
	t.Helper()
	cfg.GatherOutput = true
	world, err := mpi.NewInprocWorld(1)
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	defer world.Close()
	c := mpi.NewComm(world.Endpoint(0))
	chunk, err := gio.ReadSegment(path, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := dgraph.Build(c, n, chunk, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(dg, cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return res
}

// logCapture collects service log lines for ordering assertions.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.mu.Lock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
	lc.mu.Unlock()
}

// admittedOrder extracts job IDs from "job <id>: admitted" lines, in order.
func (lc *logCapture) admittedOrder() []string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	var ids []string
	for _, l := range lc.lines {
		if strings.Contains(l, ": admitted (") {
			ids = append(ids, strings.TrimSuffix(strings.Fields(l)[1], ":"))
		}
	}
	return ids
}

// quietHang keeps hang detection off the tests' critical path.
const quietHang = 30 * time.Second

func newTestService(t *testing.T, budget int, lc *logCapture) *Service {
	t.Helper()
	opt := Options{
		DataDir:    t.TempDir(),
		RankBudget: budget,
		Hang:       quietHang,
	}
	if lc != nil {
		opt.Logf = lc.logf
	}
	s, err := New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitState polls until the job reaches the wanted state (or any terminal
// state, which then fails the test if it isn't the wanted one).
func waitState(t *testing.T, s *Service, id string, want State) View {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		v, err := s.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if v.State == want {
			return v
		}
		if v.State.Terminal() {
			t.Fatalf("job %s settled %s (error %q), want %s", id, v.State, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, v.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func equalAssignments(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The daemon's answer must be the CLI's answer: a submitted job reproduces
// the direct single-rank reference run bit-identically, at a different world
// size.
func TestServiceJobMatchesReference(t *testing.T) {
	path, n := writeGraph(t, 300, 1500, 5)
	ref := refRun(t, path, n, core.Baseline())

	s := newTestService(t, 4, nil)
	v, err := s.Submit(JobSpec{GraphPath: path, Ranks: 3})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done := waitState(t, s, v.ID, StateDone)
	res, err := s.Result(v.ID, true)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if res.Modularity != ref.Modularity {
		t.Errorf("modularity %v, want reference %v", res.Modularity, ref.Modularity)
	}
	if res.Communities != ref.Communities {
		t.Errorf("communities %d, want %d", res.Communities, ref.Communities)
	}
	if !equalAssignments(res.Assignment, ref.GlobalComm) {
		t.Errorf("assignment differs from the 1-rank reference run")
	}
	if done.GraphFP == "" || done.ConfigFP == "" {
		t.Errorf("fingerprints missing from view: %+v", done)
	}
}

// Submissions beyond the rank budget queue and are admitted strictly in
// order; higher priority jumps the queue (but never preempts a running job).
func TestServiceAdmissionOrderUnderBudget(t *testing.T) {
	path, _ := writeGraph(t, 300, 1500, 6)
	lc := &logCapture{}
	s := newTestService(t, 2, lc)

	// Distinct seeds so results don't collapse into one cache entry.
	submit := func(seed uint64, prio int) string {
		t.Helper()
		v, err := s.Submit(JobSpec{GraphPath: path, Ranks: 2, Seed: seed, Priority: prio, Variant: "etc", Alpha: 0.25})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		return v.ID
	}
	j1 := submit(1, 0) // admitted immediately (fills the budget)
	j2 := submit(2, 0) // queued
	j3 := submit(3, 5) // queued, but jumps ahead of j2 on priority

	for _, id := range []string{j1, j2, j3} {
		waitState(t, s, id, StateDone)
	}
	got := lc.admittedOrder()
	want := []string{j1, j3, j2}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("admission order %v, want %v", got, want)
	}

	// Serialized admission implies ordered completion.
	var prev int64
	for _, id := range []string{j1, j3, j2} {
		v, _ := s.Get(id)
		if v.FinishedMS < prev {
			t.Fatalf("completion order does not follow admission order")
		}
		prev = v.FinishedMS
	}
}

// A duplicate submission is served from the result cache: instantly done,
// flagged as a hit, identical assignment, and no world launched for it.
func TestServiceCacheHitSkipsWorld(t *testing.T) {
	path, _ := writeGraph(t, 200, 900, 7)
	s := newTestService(t, 4, nil)

	v1, err := s.Submit(JobSpec{GraphPath: path, Ranks: 2, Variant: "etc", Alpha: 0.25, Seed: 9})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, v1.ID, StateDone)
	launched := s.Stats().WorldsLaunched

	// Different world size, same trajectory: must hit.
	v2, err := s.Submit(JobSpec{GraphPath: path, Ranks: 4, Variant: "etc", Alpha: 0.25, Seed: 9})
	if err != nil {
		t.Fatalf("Submit dup: %v", err)
	}
	if v2.State != StateDone || !v2.CacheHit {
		t.Fatalf("duplicate not served from cache: state=%s hit=%v", v2.State, v2.CacheHit)
	}
	if got := s.Stats().WorldsLaunched; got != launched {
		t.Errorf("duplicate launched a world: %d → %d", launched, got)
	}
	r1, _ := s.Result(v1.ID, true)
	r2, err := s.Result(v2.ID, true)
	if err != nil {
		t.Fatalf("Result dup: %v", err)
	}
	if !equalAssignments(r1.Assignment, r2.Assignment) {
		t.Errorf("cached assignment differs from the original")
	}
	if st := s.Stats(); st.CacheHits != 1 {
		t.Errorf("cache hit counter = %d, want 1", st.CacheHits)
	}

	// A different trajectory must NOT hit.
	v3, err := s.Submit(JobSpec{GraphPath: path, Ranks: 2, Variant: "etc", Alpha: 0.25, Seed: 10})
	if err != nil {
		t.Fatalf("Submit different: %v", err)
	}
	if v3.State == StateDone && v3.CacheHit {
		t.Fatalf("different seed served from cache")
	}
	waitState(t, s, v3.ID, StateDone)
}

// Aborting a running job frees its ranks for the queued one, leaves a
// committed checkpoint behind, and a resubmitted identical job adopts that
// checkpoint: it resumes past the aborted phase and still finishes
// bit-identical to an uninterrupted reference run.
func TestServiceAbortFreesBudgetAndResumesBitIdentically(t *testing.T) {
	path, n := writeGraph(t, 1200, 6000, 11)
	ref := refRun(t, path, n, core.Baseline())
	lc := &logCapture{}
	s := newTestService(t, 2, lc)

	spec := JobSpec{GraphPath: path, Ranks: 2}
	v1, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// A queued bystander that can only run once the abort frees the budget.
	other, err := s.Submit(JobSpec{GraphPath: path, Ranks: 2, Seed: 99, Variant: "et", Alpha: 0.25})
	if err != nil {
		t.Fatalf("Submit bystander: %v", err)
	}

	// Abort as soon as the first iteration lands: the interrupt flag is then
	// guaranteed to be observed at a phase boundary with work still left.
	h, err := s.Events(v1.ID)
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	sub, cancel := h.subscribe()
	defer cancel()
	var from int64
waitIter:
	for {
		events, closed := h.since(from)
		for _, e := range events {
			from = e.Seq
			if e.Kind == "iteration" {
				break waitIter
			}
		}
		if closed {
			t.Fatalf("job finished before its first iteration event")
		}
		select {
		case <-sub.wake:
		case <-time.After(30 * time.Second):
			t.Fatalf("no iteration event within 30s")
		}
	}
	if _, err := s.Abort(v1.ID); err != nil {
		t.Fatalf("Abort: %v", err)
	}

	av := waitState(t, s, v1.ID, StateAborted)
	if av.State != StateAborted {
		t.Fatalf("state %s after abort", av.State)
	}
	// The freed budget must admit the bystander.
	waitState(t, s, other.ID, StateDone)

	// The aborted job's directory must hold a committed checkpoint.
	s.mu.Lock()
	aborted := s.jobs[v1.ID]
	s.mu.Unlock()
	if _, err := ckpt.ReadManifest(aborted.ckptDir()); err != nil {
		t.Fatalf("abort left no committed checkpoint in %s", aborted.ckptDir())
	}

	// Resubmit the identical job: it must adopt the checkpoint and resume.
	v2, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	done := waitState(t, s, v2.ID, StateDone)
	if !done.Resumed {
		t.Errorf("resubmitted job did not resume from the adopted checkpoint")
	}
	// Resume must continue past the checkpointed phase, not restart it: the
	// job's stream must contain no phase-start for phase 0 (phase indices
	// are 0-based in progress events).
	h2, _ := s.Events(v2.ID)
	events, _ := h2.since(0)
	for _, e := range events {
		if e.Kind == "phase-start" && e.Phase == 0 {
			t.Errorf("resumed job re-ran phase 0 from scratch")
		}
	}
	res, err := s.Result(v2.ID, true)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if res.Modularity != ref.Modularity || !equalAssignments(res.Assignment, ref.GlobalComm) {
		t.Errorf("resumed result differs from the uninterrupted reference (Q %v vs %v)",
			res.Modularity, ref.Modularity)
	}
}

// Aborting a queued job settles it immediately without it ever running.
func TestServiceAbortQueuedJob(t *testing.T) {
	path, _ := writeGraph(t, 300, 1500, 13)
	s := newTestService(t, 2, nil)
	v1, err := s.Submit(JobSpec{GraphPath: path, Ranks: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	v2, err := s.Submit(JobSpec{GraphPath: path, Ranks: 2, Seed: 2, Variant: "tc"})
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	av, err := s.Abort(v2.ID)
	if err != nil {
		t.Fatalf("Abort queued: %v", err)
	}
	if av.State != StateAborted {
		t.Fatalf("queued abort state %s", av.State)
	}
	if _, err := s.Abort(v2.ID); err == nil {
		t.Errorf("second abort of a terminal job should fail")
	}
	waitState(t, s, v1.ID, StateDone)
	if st := s.Stats(); st.Aborted != 1 {
		t.Errorf("aborted counter = %d, want 1", st.Aborted)
	}
}

// The event stream covers the whole lifecycle: queued, admitted, a
// phase-start for EVERY phase of the final result, iterations, and done.
func TestServiceEventStreamCoversEveryPhase(t *testing.T) {
	path, _ := writeGraph(t, 300, 1500, 17)
	s := newTestService(t, 2, nil)
	v, err := s.Submit(JobSpec{GraphPath: path, Ranks: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, v.ID, StateDone)
	res, _ := s.Result(v.ID, false)

	h, _ := s.Events(v.ID)
	events, closed := h.since(0)
	if !closed {
		t.Fatalf("stream not closed after a terminal event")
	}
	kinds := map[string]int{}
	phases := map[int]bool{}
	iters := 0
	for i, e := range events {
		kinds[e.Kind]++
		if e.Seq != int64(i)+1 {
			t.Fatalf("event %d has seq %d: ids must be dense for Last-Event-ID resume", i, e.Seq)
		}
		if e.Kind == "phase-start" {
			phases[e.Phase] = true
		}
		if e.Kind == "iteration" {
			iters++
		}
	}
	for _, k := range []string{"queued", "admitted", "done"} {
		if kinds[k] != 1 {
			t.Errorf("event kind %q seen %d times, want 1", k, kinds[k])
		}
	}
	if res.Phases < 1 {
		t.Fatalf("result reports %d phases", res.Phases)
	}
	for p := 0; p < res.Phases; p++ { // phase indices are 0-based
		if !phases[p] {
			t.Errorf("no phase-start event for phase %d of %d", p, res.Phases)
		}
	}
	if iters < res.Iterations {
		t.Errorf("%d iteration events for %d iterations", iters, res.Iterations)
	}
}

// Jobs survive a daemon restart: done jobs keep serving results and re-warm
// the cache; a job still queued at shutdown runs to completion on reopen.
func TestServiceRecoveryAfterRestart(t *testing.T) {
	path, n := writeGraph(t, 300, 1500, 19)
	ref := refRun(t, path, n, core.Baseline())
	dir := t.TempDir()
	opt := Options{DataDir: dir, RankBudget: 2, Hang: quietHang}

	s1, err := New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	v1, err := s1.Submit(JobSpec{GraphPath: path, Ranks: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s1, v1.ID, StateDone)
	// Occupies the whole budget is gone now, so this one queues only if
	// submitted while something runs; here it simply gets admitted — so
	// close the service right away to catch it as early as possible. Either
	// way its record (queued or drained-back-to-queued) must recover.
	v2, err := s1.Submit(JobSpec{GraphPath: path, Ranks: 2, Seed: 3, Variant: "tc"})
	if err != nil {
		t.Fatalf("Submit second: %v", err)
	}
	s1.Close()

	// A record written when the spec still had the frontier knobs carries
	// keys JobSpec no longer has; stored records load leniently.
	recPath := filepath.Join(dir, "jobs", v1.ID, "job.json")
	rec, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(rec, []byte(`"spec": {`), []byte(`"spec": {"frontier": "off", "frontier_sparse_threshold": 0.5,`), 1)
	if bytes.Equal(old, rec) {
		t.Fatalf("no spec object to patch in %s", rec)
	}
	if err := os.WriteFile(recPath, old, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()

	// The done job is still there, result intact (assignment reloaded from
	// its persisted labels file).
	gv, err := s2.Get(v1.ID)
	if err != nil || gv.State != StateDone {
		t.Fatalf("done job lost across restart: %+v, %v", gv, err)
	}
	res, err := s2.Result(v1.ID, true)
	if err != nil {
		t.Fatalf("Result after restart: %v", err)
	}
	if !equalAssignments(res.Assignment, ref.GlobalComm) {
		t.Errorf("persisted assignment differs from reference")
	}

	// The interrupted/queued job completes after recovery.
	waitState(t, s2, v2.ID, StateDone)

	// The cache re-warmed: an identical resubmission hits without a world.
	launched := s2.Stats().WorldsLaunched
	v3, err := s2.Submit(JobSpec{GraphPath: path, Ranks: 2})
	if err != nil {
		t.Fatalf("Submit dup after restart: %v", err)
	}
	if v3.State != StateDone || !v3.CacheHit {
		t.Fatalf("restart lost the cache: state=%s hit=%v", v3.State, v3.CacheHit)
	}
	if got := s2.Stats().WorldsLaunched; got != launched {
		t.Errorf("cache hit launched a world after restart")
	}
}

// TestCacheKeyedByConfigFingerprint: a done job recorded by a daemon built
// from ea93e17 — before the return rule — carries that tree's digest of the
// same configuration ("…;tie=mix64", core.TestFingerprintRefusesUndampedTrajectories
// pins the literal). Its labels describe a trajectory this tree does not
// produce, so after a restart the record is still served under its own job ID
// but must not answer a new submission: the resubmission misses the cache,
// launches a world and gets this tree's result.
func TestCacheKeyedByConfigFingerprint(t *testing.T) {
	path, n := writeGraph(t, 300, 1500, 19)
	ref := refRun(t, path, n, core.Baseline())
	dir := t.TempDir()
	opt := Options{DataDir: dir, RankBudget: 2, Hang: quietHang}

	s1, err := New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	v1, err := s1.Submit(JobSpec{GraphPath: path, Ranks: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s1, v1.ID, StateDone)
	s1.Close()

	const parentFP = "3fe5d2c9646e1c13"
	recPath := filepath.Join(dir, "jobs", v1.ID, "job.json")
	rec, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	today := []byte(core.Baseline().Fingerprint())
	old := bytes.ReplaceAll(rec, today, []byte(parentFP))
	if bytes.Equal(old, rec) {
		t.Fatalf("job record does not carry today's config fingerprint %s: %s", today, rec)
	}
	if err := os.WriteFile(recPath, old, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if gv, err := s2.Get(v1.ID); err != nil || gv.State != StateDone || gv.ConfigFP != parentFP {
		t.Fatalf("parent-written job after restart: %+v, %v", gv, err)
	}
	launched := s2.Stats().WorldsLaunched
	v2, err := s2.Submit(JobSpec{GraphPath: path, Ranks: 2})
	if err != nil {
		t.Fatalf("Submit after restart: %v", err)
	}
	if v2.CacheHit {
		t.Fatalf("a submission was answered from a result cached under config fingerprint %s", parentFP)
	}
	waitState(t, s2, v2.ID, StateDone)
	if got := s2.Stats().WorldsLaunched; got == launched {
		t.Errorf("no world launched for the resubmission")
	}
	res, err := s2.Result(v2.ID, true)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if !equalAssignments(res.Assignment, ref.GlobalComm) {
		t.Errorf("resubmission's assignment differs from this tree's reference run")
	}
}

// Bad specs are rejected with ErrBadSpec before anything is created.
func TestServiceSubmitValidation(t *testing.T) {
	s := newTestService(t, 4, nil)
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"no graph", JobSpec{Ranks: 2}},
		{"both graphs", JobSpec{GraphPath: "/x", Vertices: 3, Edges: [][3]float64{{0, 1, 0}}, Ranks: 1}},
		{"fractional endpoint", JobSpec{Vertices: 3, Edges: [][3]float64{{0.5, 1, 0}}, Ranks: 1}},
		{"endpoint out of range", JobSpec{Vertices: 3, Edges: [][3]float64{{0, 3, 0}}, Ranks: 1}},
		{"negative weight", JobSpec{Vertices: 3, Edges: [][3]float64{{0, 1, -2}}, Ranks: 1}},
		{"ranks beyond budget", JobSpec{Vertices: 3, Edges: [][3]float64{{0, 1, 0}}, Ranks: 99}},
		{"min-ranks above ranks", JobSpec{Vertices: 3, Edges: [][3]float64{{0, 1, 0}}, Ranks: 2, MinRanks: 3}},
		{"unknown variant", JobSpec{Vertices: 3, Edges: [][3]float64{{0, 1, 0}}, Ranks: 1, Variant: "quantum"}},
		{"inline vertices over the ceiling", JobSpec{Vertices: maxInlineVertices + 1, Edges: [][3]float64{{0, 1, 0}}, Ranks: 1}},
		{"threads over the ceiling", JobSpec{Vertices: 3, Edges: [][3]float64{{0, 1, 0}}, Ranks: 1, Threads: maxSpecThreads + 1}},
		{"missing graph file", JobSpec{GraphPath: filepath.Join(t.TempDir(), "nope.bin"), Ranks: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := s.Submit(tc.spec); !errors.Is(err, ErrBadSpec) {
				t.Fatalf("Submit(%+v) = %v, want ErrBadSpec", tc.spec, err)
			}
		})
	}
	if st := s.Stats(); st.Jobs != 0 {
		t.Errorf("%d jobs registered from rejected specs", st.Jobs)
	}
}

// An inline-edge submission materializes the graph and runs like any other.
func TestServiceInlineGraph(t *testing.T) {
	s := newTestService(t, 2, nil)
	// Two triangles joined by one edge: two communities.
	v, err := s.Submit(JobSpec{
		Vertices: 6,
		Edges: [][3]float64{
			{0, 1, 0}, {1, 2, 0}, {0, 2, 0},
			{3, 4, 0}, {4, 5, 0}, {3, 5, 0},
			{2, 3, 0},
		},
		Ranks: 2,
	})
	if err != nil {
		t.Fatalf("Submit inline: %v", err)
	}
	waitState(t, s, v.ID, StateDone)
	res, err := s.Result(v.ID, true)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if res.Communities != 2 {
		t.Errorf("two joined triangles → %d communities, want 2", res.Communities)
	}
	if res.Assignment[0] != res.Assignment[1] || res.Assignment[0] != res.Assignment[2] ||
		res.Assignment[3] != res.Assignment[4] || res.Assignment[3] != res.Assignment[5] ||
		res.Assignment[0] == res.Assignment[3] {
		t.Errorf("assignment does not split the triangles: %v", res.Assignment)
	}
}

// Terminal job directories beyond KeepJobs are garbage-collected.
func TestServiceRetentionGC(t *testing.T) {
	path, _ := writeGraph(t, 100, 400, 23)
	opt := Options{DataDir: t.TempDir(), RankBudget: 2, KeepJobs: 2, Hang: quietHang}
	s, err := New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	var ids []string
	for i := 0; i < 5; i++ {
		v, err := s.Submit(JobSpec{GraphPath: path, Ranks: 1, Seed: uint64(i + 1), NoCache: true})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		waitState(t, s, v.ID, StateDone)
		ids = append(ids, v.ID)
	}
	// finishJob prunes after the job turns done, so the last prune may still
	// be in flight when waitState returns: wait for it instead of racing it.
	for deadline := time.Now().Add(10 * time.Second); s.Stats().Jobs != opt.KeepJobs; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs retained, want KeepJobs=%d", s.Stats().Jobs, opt.KeepJobs)
		}
	}
	if _, err := s.Get(ids[0]); err == nil {
		t.Errorf("oldest job survived GC")
	}
	if _, err := s.Get(ids[4]); err != nil {
		t.Errorf("newest job collected: %v", err)
	}
}
