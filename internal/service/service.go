package service

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distlouvain/internal/ckpt"
	"distlouvain/internal/core"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/obsv"
	"distlouvain/internal/supervisor"
)

// API error kinds, for transport layers to map onto status codes.
var (
	ErrBadSpec     = errors.New("service: invalid job spec")
	ErrQueueFull   = errors.New("service: job queue is full")
	ErrClosed      = errors.New("service: daemon is draining")
	ErrNotFound    = errors.New("service: no such job")
	ErrNotDone     = errors.New("service: job has no result yet")
	ErrJobTerminal = errors.New("service: job already finished")
)

// Options tunes the service.
type Options struct {
	// DataDir roots the per-job directories (jobs/<id>/ with job.json,
	// ckpt/, optional graph.bin and result.labels). Required.
	DataDir string
	// RankBudget is the total number of ranks that may run concurrently
	// across all admitted jobs (≤0 selects GOMAXPROCS). A single job may
	// ask for at most this many.
	RankBudget int
	// MaxQueue bounds the number of waiting jobs; submissions beyond it are
	// rejected with ErrQueueFull (≤0 selects 256).
	MaxQueue int
	// CacheCap bounds the result cache entry count (≤0 selects 128).
	CacheCap int
	// KeepJobs bounds how many TERMINAL job directories are retained;
	// beyond it the oldest are garbage-collected, records and checkpoints
	// alike (≤0 selects 64). Live jobs are never collected.
	KeepJobs int

	// Supervision tuning applied to every job's world, in the supervisor's
	// own types: zero values select its defaults, which are declared there
	// and nowhere else. Policy.MinRanks and Policy.Seed come from each
	// job's spec; Hang is supervisor.Options.Hang, the beacon silence of a
	// job's whole world allowed before it may count as hung.
	Policy supervisor.Policy
	Hang   time.Duration

	// Logf receives service progress lines; nil discards them.
	Logf func(format string, args ...any)
	// Registry, when set, receives job lifecycle events and a "service"
	// counter source for expvar exposure. nil disables.
	Registry *obsv.Registry
}

func (o *Options) fill() {
	if o.RankBudget <= 0 {
		o.RankBudget = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 256
	}
	if o.CacheCap <= 0 {
		o.CacheCap = 128
	}
	if o.KeepJobs <= 0 {
		o.KeepJobs = 64
	}
}

// serviceCounters aggregates lifetime totals for /v1/stats and expvar.
type serviceCounters struct {
	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	aborted   atomic.Int64
	cacheHits atomic.Int64
	restarts  atomic.Int64
	launched  atomic.Int64 // world attempts launched (0 growth on cache hits)
}

func (c *serviceCounters) snapshot() map[string]int64 {
	return map[string]int64{
		"jobs_submitted":  c.submitted.Load(),
		"jobs_completed":  c.completed.Load(),
		"jobs_failed":     c.failed.Load(),
		"jobs_aborted":    c.aborted.Load(),
		"cache_hits":      c.cacheHits.Load(),
		"restarts":        c.restarts.Load(),
		"worlds_launched": c.launched.Load(),
	}
}

// Service is the community-detection-as-a-service engine: job registry,
// admission queue, rank-budget scheduler, result cache and recovery. The
// HTTP layer in api.go is a thin skin over its methods.
type Service struct {
	opt      Options
	reg      *obsv.Registry
	counters serviceCounters

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []*Job         // by Seq, for stable listings and GC
	queue   jobQueue       // waiting for budget
	running map[string]int // job ID → ranks currently held from the budget
	used    int            // sum of running values
	seq     int64
	closed  bool

	cache   *resultCache
	digests digestMemo     // graph fingerprints by file version
	wg      sync.WaitGroup // one entry per running job goroutine
}

// New opens (or creates) a service over DataDir and recovers every
// persisted job: completed results re-warm the cache, interrupted and queued
// jobs re-enter the admission queue and resume from their own committed
// checkpoints.
func New(opt Options) (*Service, error) {
	opt.fill()
	if opt.DataDir == "" {
		return nil, errors.New("service: Options.DataDir is required")
	}
	s := &Service{
		opt:     opt,
		reg:     opt.Registry,
		jobs:    make(map[string]*Job),
		running: make(map[string]int),
		cache:   newResultCache(opt.CacheCap),
	}
	if err := os.MkdirAll(s.jobsDir(), 0o755); err != nil {
		return nil, err
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.admitLocked()
	s.mu.Unlock()
	if s.reg != nil {
		s.reg.AttachCounters("service", s.counters.snapshot)
	}
	return s, nil
}

func (s *Service) jobsDir() string { return filepath.Join(s.opt.DataDir, "jobs") }

func (s *Service) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

func (s *Service) record(kind, name string, fields map[string]float64) {
	if s.reg != nil {
		s.reg.RecordEvent(kind, name, fields)
	}
}

// newJobID mints a collision-resistant job identifier.
func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: crypto/rand failed: %v", err)) // no sane fallback
	}
	return "j-" + hex.EncodeToString(b[:])
}

// Ceilings on what a spec may ask the daemon to allocate: a few bytes of JSON
// must not size per-vertex or per-thread arrays without limit.
const (
	maxInlineVertices = 1 << 22
	maxSpecThreads    = 256
)

// normalize validates the spec, applies defaults in place, and returns the
// core configuration it describes. All violations wrap ErrBadSpec.
func (s *Service) normalize(spec *JobSpec) (core.Config, error) {
	bad := func(format string, args ...any) (core.Config, error) {
		return core.Config{}, fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
	}
	hasInline := spec.Vertices != 0 || len(spec.Edges) > 0
	if spec.GraphPath == "" && !hasInline {
		return bad("a graph is required: graph_path or vertices+edges")
	}
	if spec.GraphPath != "" && hasInline {
		return bad("graph_path and inline vertices/edges are mutually exclusive")
	}
	if hasInline {
		if spec.Vertices < 1 || spec.Vertices > maxInlineVertices {
			return bad("inline graph needs vertices in [1, %d]; submit larger graphs by graph_path", maxInlineVertices)
		}
		for i, e := range spec.Edges {
			u, v, w := e[0], e[1], e[2]
			if u != math.Trunc(u) || v != math.Trunc(v) {
				return bad("edge %d: endpoints must be integers", i)
			}
			if u < 0 || v < 0 || int64(u) >= spec.Vertices || int64(v) >= spec.Vertices {
				return bad("edge %d: endpoint out of range [0, %d)", i, spec.Vertices)
			}
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return bad("edge %d: weight must be finite and non-negative", i)
			}
		}
	}
	if spec.Ranks == 0 {
		spec.Ranks = 2
		if s.opt.RankBudget < 2 {
			spec.Ranks = 1
		}
	}
	if spec.Ranks < 1 {
		return bad("ranks must be >= 1")
	}
	if spec.Ranks > s.opt.RankBudget {
		return bad("ranks %d exceeds the daemon rank budget %d", spec.Ranks, s.opt.RankBudget)
	}
	if spec.MinRanks == 0 {
		spec.MinRanks = 1
	}
	if spec.MinRanks < 1 || spec.MinRanks > spec.Ranks {
		return bad("min_ranks must be in [1, ranks]")
	}
	if spec.Threads < 0 || spec.Tau < 0 || spec.MaxPhases < 0 || spec.MaxIterations < 0 {
		return bad("threads, tau, max_phases and max_iterations must be non-negative")
	}
	if spec.Threads > maxSpecThreads {
		return bad("threads %d exceeds the limit %d", spec.Threads, maxSpecThreads)
	}
	if spec.Alpha < 0 || spec.Alpha > 1 {
		return bad("alpha must be in [0, 1]")
	}
	cfg, err := spec.config()
	if err != nil {
		return bad("%v", err)
	}
	return cfg, nil
}

// Submit accepts a job: on a cache hit it settles immediately as done
// without launching a world; otherwise the job enters the admission queue
// (adopting a prior identical job's committed checkpoint when one exists, so
// resubmitting an aborted job resumes rather than restarts).
func (s *Service) Submit(spec JobSpec) (View, error) {
	cfg, err := s.normalize(&spec)
	if err != nil {
		return View{}, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return View{}, ErrClosed
	}
	if s.queue.len() >= s.opt.MaxQueue {
		s.mu.Unlock()
		return View{}, ErrQueueFull
	}
	s.seq++
	seq := s.seq
	s.mu.Unlock()

	id := newJobID()
	dir := filepath.Join(s.jobsDir(), id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return View{}, err
	}
	j := &Job{
		ID:      id,
		Seq:     seq,
		Spec:    spec,
		dir:     dir,
		events:  newHub(),
		state:   StateQueued,
		ranks:   spec.Ranks,
		created: time.Now(),
	}

	// Resolve the graph: reference a daemon-readable file, or materialize
	// the inline edges into the job directory.
	if spec.GraphPath != "" {
		hdr, err := gio.ReadHeader(spec.GraphPath)
		if err != nil {
			os.RemoveAll(dir)
			return View{}, fmt.Errorf("%w: graph_path: %v", ErrBadSpec, err)
		}
		j.graphPath, j.vertices = spec.GraphPath, hdr.Vertices
	} else {
		edges := make([]graph.RawEdge, len(spec.Edges))
		for i, e := range spec.Edges {
			w := e[2]
			if w == 0 {
				w = 1
			}
			edges[i] = graph.RawEdge{U: int64(e[0]), V: int64(e[1]), W: w}
		}
		j.graphPath = filepath.Join(dir, "graph.bin")
		if err := gio.WriteBinary(j.graphPath, spec.Vertices, edges); err != nil {
			os.RemoveAll(dir)
			return View{}, err
		}
		j.vertices = spec.Vertices
	}

	gfp, err := s.digests.fingerprint(j.graphPath)
	if err != nil {
		os.RemoveAll(dir)
		return View{}, err
	}
	j.GraphFP, j.ConfigFP = gfp, cfg.Fingerprint()
	s.counters.submitted.Add(1)
	s.record("job", "submitted", map[string]float64{"seq": float64(seq), "ranks": float64(spec.Ranks)})

	// Duplicate of a completed run? Serve it straight from the cache.
	if !spec.NoCache {
		if hit, ok := s.cache.get(s.cacheKey(j)); ok {
			s.settleFromCache(j, hit)
			s.registerJob(j)
			return j.view(), nil
		}
	}

	// A prior identical job that stopped short (aborted, failed, drained)
	// may have committed a checkpoint; adopt it so this job resumes instead
	// of restarting from scratch.
	if src := s.checkpointDonor(j); src != "" {
		if err := adoptCheckpoint(src, j.ckptDir()); err != nil {
			s.logf("job %s: checkpoint adoption from %s failed (cold start): %v", id, src, err)
		} else {
			s.logf("job %s: adopted committed checkpoint from %s", id, src)
		}
	}

	j.events.publish(Event{Kind: "queued", Ranks: spec.Ranks})
	if err := j.persist(); err != nil {
		os.RemoveAll(dir)
		return View{}, err
	}
	s.registerJob(j)
	s.mu.Lock()
	s.queue.push(j)
	s.admitLocked()
	s.mu.Unlock()
	return j.view(), nil
}

// cacheKey builds the job's result-cache key.
func (s *Service) cacheKey(j *Job) resultKey {
	return resultKey{Graph: j.GraphFP, Config: j.ConfigFP}
}

// settleFromCache completes a job instantly from a cached result.
func (s *Service) settleFromCache(j *Job, hit *cachedResult) {
	now := time.Now()
	j.mu.Lock()
	j.state = StateDone
	j.cacheHit = true
	j.started, j.finished = now, now
	j.result = &Result{
		Modularity:  hit.Modularity,
		Communities: hit.Communities,
		Phases:      hit.Phases,
		Iterations:  hit.Iterations,
		CacheHit:    true,
		Assignment:  hit.Assignment,
	}
	j.progress = Progress{Phase: hit.Phases, Modularity: sanitizeFloat(hit.Modularity)}
	j.mu.Unlock()
	s.counters.cacheHits.Add(1)
	s.record("job", "cache-hit", map[string]float64{"seq": float64(j.Seq)})
	j.events.publish(Event{Kind: "cache-hit", Msg: "served from result cache (computed by " + hit.SourceJob + ")"})
	j.events.publish(Event{Kind: "done", Modularity: hit.Modularity, Communities: hit.Communities, Phase: hit.Phases})
	if err := j.persist(); err != nil {
		s.logf("job %s: persist: %v", j.ID, err)
	}
	s.logf("job %s: cache hit (graph %s, config %s)", j.ID, j.GraphFP, j.ConfigFP)
}

// checkpointDonor finds the most recent terminal-but-unfinished identical
// job whose directory holds a committed checkpoint.
func (s *Service) checkpointDonor(j *Job) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var donor *Job
	for _, cand := range s.order {
		if cand.GraphFP != j.GraphFP || cand.ConfigFP != j.ConfigFP {
			continue
		}
		cand.mu.Lock()
		eligible := (cand.state == StateAborted || cand.state == StateFailed)
		cand.mu.Unlock()
		if eligible && (donor == nil || cand.Seq > donor.Seq) && supervisor.HasCheckpoint(cand.ckptDir()) {
			donor = cand
		}
	}
	if donor == nil {
		return ""
	}
	return donor.ckptDir()
}

// adoptCheckpoint copies a committed checkpoint (manifest last, so the copy
// commits atomically in the same order the original did). Each copy is
// fsynced before the manifest that names it is written: a power loss must
// not leave a committed manifest over torn files.
func adoptCheckpoint(src, dst string) error {
	man, err := ckpt.ReadManifest(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, f := range man.Files {
		if err := copyFile(filepath.Join(src, f), filepath.Join(dst, f)); err != nil {
			return err
		}
	}
	return ckpt.WriteManifest(dst, man)
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// registerJob adds the job to the registry maps.
func (s *Service) registerJob(j *Job) {
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	sort.Slice(s.order, func(a, b int) bool { return s.order[a].Seq < s.order[b].Seq })
	s.mu.Unlock()
}

// admitLocked starts queued jobs while the head fits the remaining budget.
// Strictly in order: the head blocks admission until it fits (see jobQueue).
// Caller holds s.mu.
func (s *Service) admitLocked() {
	if s.closed {
		return
	}
	for {
		head := s.queue.head()
		if head == nil || s.used+head.Spec.Ranks > s.opt.RankBudget {
			return
		}
		j := s.queue.pop()
		s.running[j.ID] = j.Spec.Ranks
		s.used += j.Spec.Ranks
		j.mu.Lock()
		j.state = StateRunning
		j.mu.Unlock()
		j.events.publish(Event{Kind: "admitted", Ranks: j.Spec.Ranks})
		s.logf("job %s: admitted (%d ranks, %d/%d in use)", j.ID, j.Spec.Ranks, s.used, s.opt.RankBudget)
		s.record("job", "admitted", map[string]float64{"seq": float64(j.Seq), "ranks": float64(j.Spec.Ranks)})
		s.wg.Add(1)
		go s.startJob(j)
	}
}

// startJob re-checks the cache at admission (a duplicate may have completed
// while this job waited in the queue) and otherwise runs the world.
func (s *Service) startJob(j *Job) {
	if !j.Spec.NoCache {
		if hit, ok := s.cache.get(s.cacheKey(j)); ok {
			defer s.wg.Done()
			s.releaseJob(j)
			s.settleFromCache(j, hit)
			s.gc()
			return
		}
	}
	s.counters.launched.Add(1)
	s.runJob(j)
}

// resizeJob re-accounts a running job's rank usage when supervision changes
// its world size (degradation shrinks it; the freed ranks may admit a
// queued job immediately).
func (s *Service) resizeJob(j *Job, ranks int) {
	s.mu.Lock()
	if cur, ok := s.running[j.ID]; ok && ranks != cur {
		s.used += ranks - cur
		s.running[j.ID] = ranks
		s.logf("job %s: world resized %d → %d ranks (%d/%d in use)", j.ID, cur, ranks, s.used, s.opt.RankBudget)
		s.admitLocked()
	}
	s.mu.Unlock()
	j.mu.Lock()
	j.ranks = ranks
	j.mu.Unlock()
}

// releaseJob returns the job's ranks to the budget and admits what now fits.
func (s *Service) releaseJob(j *Job) {
	s.mu.Lock()
	if held, ok := s.running[j.ID]; ok {
		s.used -= held
		delete(s.running, j.ID)
	}
	s.admitLocked()
	s.mu.Unlock()
}

// finishJob settles a job after its supervised run returned: done on
// success; aborted when a client abort interrupted it; back to queued when a
// daemon drain interrupted it (the checkpoint makes it resumable on the next
// start); failed otherwise. It releases the budget first — the world is gone
// either way, and a queued job should take the ranks immediately.
func (s *Service) finishJob(j *Job, res *core.Result, runErr error) {
	s.releaseJob(j)
	now := time.Now()

	if runErr == nil {
		assignment := res.GlobalComm
		// Publish the cache entry and the labels file BEFORE the job turns
		// done: a client that polls this job to completion and instantly
		// resubmits must find the cache populated.
		if err := gio.WriteGroundTruth(filepath.Join(j.dir, "result.labels"), assignment); err != nil {
			s.logf("job %s: persist assignment: %v", j.ID, err)
		}
		s.cache.put(s.cacheKey(j), &cachedResult{
			Assignment:  assignment,
			Modularity:  sanitizeFloat(res.Modularity),
			Communities: res.Communities,
			Phases:      len(res.Phases),
			Iterations:  res.TotalIterations,
			SourceJob:   j.ID,
		})
		j.mu.Lock()
		j.state = StateDone
		j.finished = now
		j.result = &Result{
			Modularity:  sanitizeFloat(res.Modularity),
			Communities: res.Communities,
			Phases:      len(res.Phases),
			Iterations:  res.TotalIterations,
			RuntimeMS:   res.Runtime.Milliseconds(),
			Resumed:     j.resumed,
			Assignment:  assignment,
		}
		resumed := j.resumed
		j.mu.Unlock()
		s.counters.completed.Add(1)
		s.record("job", "done", map[string]float64{
			"seq": float64(j.Seq), "modularity": sanitizeFloat(res.Modularity),
			"communities": float64(res.Communities), "resumed": b2f(resumed),
		})
		j.events.publish(Event{Kind: "done", Modularity: res.Modularity, Communities: res.Communities, Phase: len(res.Phases)})
		s.logf("job %s: done: Q=%.6f communities=%d phases=%d", j.ID, res.Modularity, res.Communities, len(res.Phases))
	} else {
		drainedStop := s.draining() && errors.Is(runErr, core.ErrInterrupted)
		j.mu.Lock()
		aborting := j.aborting
		drained := drainedStop
		switch {
		case aborting:
			j.state = StateAborted
			j.errMsg = "aborted by client"
			j.finished = now
		case drained:
			// Daemon shutdown interrupted it; the committed checkpoint makes
			// it resumable, so it goes back to queued for the next start.
			j.state = StateQueued
		default:
			j.state = StateFailed
			j.errMsg = runErr.Error()
			j.finished = now
		}
		state := j.state
		j.mu.Unlock()
		switch state {
		case StateAborted:
			s.counters.aborted.Add(1)
			s.record("job", "aborted", map[string]float64{"seq": float64(j.Seq)})
			j.events.publish(Event{Kind: "aborted", Msg: fmt.Sprint(runErr)})
			s.logf("job %s: aborted (checkpoint retained for resubmission)", j.ID)
		case StateQueued:
			j.events.publish(Event{Kind: "queued", Msg: "interrupted by daemon drain; will resume"})
			s.logf("job %s: drained to checkpoint; queued for the next daemon start", j.ID)
		default:
			s.counters.failed.Add(1)
			s.record("job", "failed", map[string]float64{"seq": float64(j.Seq)})
			j.events.publish(Event{Kind: "failed", Msg: runErr.Error()})
			s.logf("job %s: failed: %v", j.ID, runErr)
		}
	}
	if err := j.persist(); err != nil {
		s.logf("job %s: persist: %v", j.ID, err)
	}
	s.gc()
}

func (s *Service) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Get returns a job's status view.
func (s *Service) Get(id string) (View, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return View{}, ErrNotFound
	}
	return j.view(), nil
}

// List returns every known job in submission order.
func (s *Service) List() []View {
	s.mu.Lock()
	jobs := append([]*Job(nil), s.order...)
	s.mu.Unlock()
	out := make([]View, len(jobs))
	for i, j := range jobs {
		out[i] = j.view()
	}
	return out
}

// Events returns the job's event hub for streaming.
func (s *Service) Events(id string) (*hub, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, ErrNotFound
	}
	return j.events, nil
}

// Result returns a completed job's result. The assignment is loaded from
// the job directory when it is no longer in memory (daemon restarted since
// the job completed).
func (s *Service) Result(id string, withAssignment bool) (Result, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return Result{}, ErrNotFound
	}
	j.mu.Lock()
	state := j.state
	var res Result
	if j.result != nil {
		res = *j.result
	}
	vertices := j.vertices
	dir := j.dir
	j.mu.Unlock()
	if state != StateDone {
		return Result{}, fmt.Errorf("%w (state %s)", ErrNotDone, state)
	}
	if !withAssignment {
		res.Assignment = nil
		return res, nil
	}
	if res.Assignment == nil {
		labels, err := gio.ReadGroundTruth(filepath.Join(dir, "result.labels"), vertices)
		if err != nil {
			return Result{}, fmt.Errorf("service: job %s: assignment no longer available: %w", id, err)
		}
		res.Assignment = labels
	}
	return res, nil
}

// Abort cancels a job. A queued job settles aborted immediately; a running
// job is gracefully interrupted — its world checkpoints at the next phase
// boundary, releases its ranks, and the committed checkpoint stays in the
// job directory so an identical resubmission resumes from it.
func (s *Service) Abort(id string) (View, error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return View{}, ErrNotFound
	}
	if s.queue.remove(id) {
		j.mu.Lock()
		j.state = StateAborted
		j.errMsg = "aborted while queued"
		j.finished = time.Now()
		j.mu.Unlock()
		s.mu.Unlock()
		s.counters.aborted.Add(1)
		s.record("job", "aborted", map[string]float64{"seq": float64(j.Seq)})
		j.events.publish(Event{Kind: "aborted", Msg: "aborted while queued"})
		if err := j.persist(); err != nil {
			s.logf("job %s: persist: %v", j.ID, err)
		}
		s.gc()
		return j.view(), nil
	}
	s.mu.Unlock()

	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return j.view(), ErrJobTerminal
	}
	j.aborting = true
	intr := j.interrupt
	j.mu.Unlock()
	if intr != nil {
		intr() // supervisor.Interrupt: checkpoint at the next phase boundary
	}
	return j.view(), nil
}

// Stats is the daemon-level counter snapshot.
type Stats struct {
	RankBudget     int   `json:"rank_budget"`
	RanksInUse     int   `json:"ranks_in_use"`
	Queued         int   `json:"queued"`
	Running        int   `json:"running"`
	Jobs           int   `json:"jobs"`
	CacheEntries   int   `json:"cache_entries"`
	Submitted      int64 `json:"jobs_submitted"`
	Completed      int64 `json:"jobs_completed"`
	Failed         int64 `json:"jobs_failed"`
	Aborted        int64 `json:"jobs_aborted"`
	CacheHits      int64 `json:"cache_hits"`
	Restarts       int64 `json:"restarts"`
	WorldsLaunched int64 `json:"worlds_launched"`
}

// Stats snapshots the service.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		RankBudget: s.opt.RankBudget,
		RanksInUse: s.used,
		Queued:     s.queue.len(),
		Running:    len(s.running),
		Jobs:       len(s.jobs),
	}
	s.mu.Unlock()
	st.CacheEntries = s.cache.len()
	st.Submitted = s.counters.submitted.Load()
	st.Completed = s.counters.completed.Load()
	st.Failed = s.counters.failed.Load()
	st.Aborted = s.counters.aborted.Load()
	st.CacheHits = s.counters.cacheHits.Load()
	st.Restarts = s.counters.restarts.Load()
	st.WorldsLaunched = s.counters.launched.Load()
	return st
}

// Close drains the service: no further admissions, every running world is
// gracefully interrupted (checkpointing at its next phase boundary and
// re-queuing as resumable), and Close returns when every job goroutine has
// settled.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	var intrs []func()
	for id := range s.running {
		if j := s.jobs[id]; j != nil {
			j.mu.Lock()
			if f := j.interrupt; f != nil {
				intrs = append(intrs, f)
			}
			j.mu.Unlock()
		}
	}
	s.mu.Unlock()
	for _, f := range intrs {
		f()
	}
	s.wg.Wait()
}

// recover rebuilds the registry from persisted job records: done jobs
// re-warm the result cache, live jobs re-enter the queue (their committed
// checkpoints make the re-run a resume).
func (s *Service) recover() error {
	entries, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return err
	}
	type loaded struct {
		rec *jobRecord
		dir string
	}
	var recs []loaded
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(s.jobsDir(), e.Name())
		rec, err := loadJobRecord(dir)
		if err != nil {
			s.logf("recovery: skipping %s: %v", dir, err)
			continue
		}
		recs = append(recs, loaded{rec: rec, dir: dir})
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].rec.Seq < recs[b].rec.Seq })

	for _, l := range recs {
		rec := l.rec
		j := &Job{
			ID:        rec.ID,
			Seq:       rec.Seq,
			Spec:      rec.Spec,
			GraphFP:   rec.GraphFP,
			ConfigFP:  rec.ConfigFP,
			dir:       l.dir,
			graphPath: rec.Graph,
			vertices:  rec.Vertices,
			events:    newHub(),
			state:     rec.State,
			errMsg:    rec.Error,
			restarts:  rec.Restarts,
			resumed:   rec.Resumed,
			cacheHit:  rec.CacheHit,
			ranks:     rec.Spec.Ranks,
			created:   time.Now(),
		}
		if rec.Seq > s.seq {
			s.seq = rec.Seq
		}
		switch rec.State {
		case StateDone:
			j.result = rec.Result
			if j.result == nil {
				j.result = &Result{}
			}
			// Re-warm the cache from the persisted assignment so duplicates
			// keep short-circuiting across daemon restarts.
			if labels, err := gio.ReadGroundTruth(filepath.Join(l.dir, "result.labels"), rec.Vertices); err == nil {
				s.cache.put(resultKey{Graph: rec.GraphFP, Config: rec.ConfigFP}, &cachedResult{
					Assignment:  labels,
					Modularity:  j.result.Modularity,
					Communities: j.result.Communities,
					Phases:      j.result.Phases,
					Iterations:  j.result.Iterations,
					SourceJob:   rec.ID,
				})
			}
			j.events.publish(Event{Kind: "done", Modularity: j.result.Modularity, Communities: j.result.Communities, Phase: j.result.Phases})
		case StateFailed:
			j.events.publish(Event{Kind: "failed", Msg: rec.Error})
		case StateAborted:
			j.events.publish(Event{Kind: "aborted", Msg: rec.Error})
		default: // queued or running at crash time: re-enter the queue
			j.state = StateQueued
			resumable := supervisor.HasCheckpoint(j.ckptDir())
			msg := "recovered after daemon restart"
			if resumable {
				msg += "; will resume from its committed checkpoint"
			}
			j.events.publish(Event{Kind: "queued", Msg: msg, Ranks: j.Spec.Ranks})
			s.queue.push(j)
			s.logf("recovery: job %s re-queued (resumable=%v)", j.ID, resumable)
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j)
	}
	return nil
}

// gc prunes the oldest terminal job directories beyond KeepJobs — records,
// results and checkpoints alike. Live jobs and the queue are never touched.
func (s *Service) gc() {
	s.mu.Lock()
	var terminal []*Job
	for _, j := range s.order {
		j.mu.Lock()
		if j.state.Terminal() {
			terminal = append(terminal, j)
		}
		j.mu.Unlock()
	}
	excess := len(terminal) - s.opt.KeepJobs
	var victims []*Job
	if excess > 0 {
		victims = terminal[:excess] // order is Seq-ascending: oldest first
		for _, v := range victims {
			delete(s.jobs, v.ID)
		}
		kept := s.order[:0]
		dead := make(map[string]bool, len(victims))
		for _, v := range victims {
			dead[v.ID] = true
		}
		for _, j := range s.order {
			if !dead[j.ID] {
				kept = append(kept, j)
			}
		}
		s.order = kept
	}
	s.mu.Unlock()
	for _, v := range victims {
		os.RemoveAll(v.dir)
		s.logf("gc: pruned terminal job %s", v.ID)
	}
}
