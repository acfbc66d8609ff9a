// Package service implements community-detection-as-a-service: a resident
// daemon surface over the supervised distributed Louvain runtime. Clients
// submit jobs (a graph plus an algorithm configuration) over HTTP/JSON; a
// FIFO-with-priorities queue admits them against a fixed total rank budget;
// each admitted job runs as a supervised in-process world (crash restart,
// hang detection and degrade-to-fewer-ranks inherited from
// internal/supervisor) with its own checkpoint directory, so any job is
// individually resumable — including across a daemon restart. Completed
// results are cached keyed on (graph fingerprint, config fingerprint):
// Louvain here is deterministic given both, so a duplicate submission is
// served without launching a world. Progress streams to clients as
// server-sent events built from the supervisor beacon channel.
package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"distlouvain/internal/core"
)

// State is a job's lifecycle position. Transitions are monotone:
// queued → running → {done, failed, aborted}, with aborted also reachable
// straight from queued. Terminal states never change.
type State string

// Job lifecycle states.
const (
	StateQueued  State = "queued"  // accepted, waiting for rank budget
	StateRunning State = "running" // a supervised world is executing it
	StateDone    State = "done"    // result available (possibly from cache)
	StateFailed  State = "failed"  // supervisor gave up; Error explains
	StateAborted State = "aborted" // cancelled by a client or daemon drain
)

// Terminal reports whether the state can no longer change.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateAborted
}

// JobSpec is what a client submits: the graph, the algorithm variant and its
// parameters, and scheduling hints. Exactly one of GraphPath and
// Vertices+Edges must be given.
type JobSpec struct {
	// GraphPath names a binary edge-list file (gio format) readable by the
	// daemon. The file is referenced in place, not copied: it must outlive
	// the job.
	GraphPath string `json:"graph_path,omitempty"`
	// Vertices+Edges submit the graph inline; the daemon materializes it
	// into the job directory. Each edge is [u, v, w] with 0-based vertex
	// IDs; a weight of 0 means 1. Inline IDs ride in float64s, so inline
	// submission is for graphs with IDs below 2^53 — use GraphPath beyond.
	Vertices int64        `json:"vertices,omitempty"`
	Edges    [][3]float64 `json:"edges,omitempty"`

	// Variant selects the paper's algorithm legend entry: baseline
	// (default), tc, et, etc, ettc.
	Variant string  `json:"variant,omitempty"`
	Alpha   float64 `json:"alpha,omitempty"` // ET decay (default 0.25 for et/etc/ettc)
	Tau     float64 `json:"tau,omitempty"`   // convergence threshold (0 = 1e-6)
	Seed    uint64  `json:"seed,omitempty"`  // ET coin-flip seed
	Threads int     `json:"threads,omitempty"`
	// MaxPhases / MaxIterations cap the run (0 = library defaults).
	MaxPhases     int `json:"max_phases,omitempty"`
	MaxIterations int `json:"max_iterations,omitempty"`

	// Ranks is the world size the scheduler admits (default 2, capped by
	// the daemon budget); MinRanks is the floor supervision may degrade to
	// (default 1).
	Ranks    int `json:"ranks,omitempty"`
	MinRanks int `json:"min_ranks,omitempty"`
	// Priority orders admission: higher first, FIFO within a class.
	Priority int `json:"priority,omitempty"`
	// NoCache skips the result-cache lookup (the completed result is still
	// inserted for later submissions).
	NoCache bool `json:"no_cache,omitempty"`
}

// config builds the core configuration the spec describes. Service jobs
// always gather the full assignment at rank 0 — that is the product.
func (sp JobSpec) config() (core.Config, error) {
	// The spec's documented defaults: no variant is baseline, no alpha 0.25.
	variant, alpha := sp.Variant, sp.Alpha
	if variant == "" {
		variant = "baseline"
	}
	if alpha == 0 {
		alpha = 0.25
	}
	cfg, err := core.ParseVariant(variant, alpha)
	if err != nil {
		return core.Config{}, err
	}
	cfg.Tau = sp.Tau
	cfg.Seed = sp.Seed
	cfg.Threads = sp.Threads
	cfg.MaxPhases = sp.MaxPhases
	cfg.MaxIterations = sp.MaxIterations
	cfg.GatherOutput = true
	return cfg, nil
}

// Progress is the latest streamed position of a running job.
type Progress struct {
	Phase      int     `json:"phase"`
	Iteration  int     `json:"iteration"`
	Modularity float64 `json:"modularity"`
}

// Result is a completed job's outcome. Assignment maps every original
// vertex to its final community label.
type Result struct {
	Modularity  float64 `json:"modularity"`
	Communities int64   `json:"communities"`
	Phases      int     `json:"phases"`
	Iterations  int     `json:"iterations"`
	RuntimeMS   int64   `json:"runtime_ms"`
	CacheHit    bool    `json:"cache_hit"`
	Resumed     bool    `json:"resumed"` // continued from a committed checkpoint
	Assignment  []int64 `json:"assignment,omitempty"`
}

// Job is one submission's full server-side record.
type Job struct {
	ID  string
	Seq int64 // admission order within the daemon's lifetime

	Spec     JobSpec
	GraphFP  core.Fingerprint
	ConfigFP core.Fingerprint

	dir       string // per-job directory: job.json, ckpt/, graph.bin, result.labels
	graphPath string // resolved graph file (Spec.GraphPath or materialized inline)
	vertices  int64

	events *hub

	mu        sync.Mutex
	state     State
	errMsg    string
	ranks     int // current world size while running (may shrink on degrade)
	restarts  int
	resumed   bool
	cacheHit  bool
	aborting  bool
	progress  Progress
	result    *Result
	created   time.Time
	started   time.Time
	finished  time.Time
	interrupt func() // graceful-stop hook while running (supervisor.Interrupt)
}

// ckptDir is the job's private checkpoint directory.
func (j *Job) ckptDir() string { return filepath.Join(j.dir, "ckpt") }

// View is the wire representation of a job's status.
type View struct {
	ID          string           `json:"id"`
	State       State            `json:"state"`
	Error       string           `json:"error,omitempty"`
	GraphFP     core.Fingerprint `json:"graph_fingerprint"`
	ConfigFP    core.Fingerprint `json:"config_fingerprint"`
	Variant     string           `json:"variant"`
	Vertices    int64            `json:"vertices"`
	Ranks       int              `json:"ranks"`
	Priority    int              `json:"priority"`
	Restarts    int              `json:"restarts"`
	Resumed     bool             `json:"resumed,omitempty"`
	CacheHit    bool             `json:"cache_hit,omitempty"`
	Progress    Progress         `json:"progress"`
	Modularity  float64          `json:"modularity,omitempty"`
	Communities int64            `json:"communities,omitempty"`
	CreatedMS   int64            `json:"created_unix_ms,omitempty"`
	StartedMS   int64            `json:"started_unix_ms,omitempty"`
	FinishedMS  int64            `json:"finished_unix_ms,omitempty"`
}

// view snapshots the job for the API.
func (j *Job) view() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:       j.ID,
		State:    j.state,
		Error:    j.errMsg,
		GraphFP:  j.GraphFP,
		ConfigFP: j.ConfigFP,
		Variant:  j.Spec.Variant,
		Vertices: j.vertices,
		Ranks:    j.ranks,
		Priority: j.Spec.Priority,
		Restarts: j.restarts,
		Resumed:  j.resumed,
		CacheHit: j.cacheHit,
		Progress: sanitizeProgress(j.progress),
	}
	if j.result != nil {
		v.Modularity = sanitizeFloat(j.result.Modularity)
		v.Communities = j.result.Communities
	}
	v.CreatedMS = unixMS(j.created)
	v.StartedMS = unixMS(j.started)
	v.FinishedMS = unixMS(j.finished)
	return v
}

func unixMS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}

// jobRecord is the persisted form of a job (job.json in its directory). The
// full assignment lives next to it in result.labels; the record carries only
// the summary. Version gates schema evolution.
type jobRecord struct {
	Version  int              `json:"version"`
	ID       string           `json:"id"`
	Seq      int64            `json:"seq"`
	Spec     JobSpec          `json:"spec"`
	GraphFP  core.Fingerprint `json:"graph_fingerprint"`
	ConfigFP core.Fingerprint `json:"config_fingerprint"`
	Graph    string           `json:"graph"` // resolved graph path
	Vertices int64            `json:"vertices"`
	State    State            `json:"state"`
	Error    string           `json:"error,omitempty"`
	Restarts int              `json:"restarts,omitempty"`
	Resumed  bool             `json:"resumed,omitempty"`
	CacheHit bool             `json:"cache_hit,omitempty"`
	Result   *Result          `json:"result,omitempty"` // summary only; Assignment elided
}

// jobRecordVersion is the current job.json schema version.
const jobRecordVersion = 1

// persist writes the job's durable record atomically (write + rename), so a
// daemon crash mid-write can never corrupt a recoverable job.
func (j *Job) persist() error {
	j.mu.Lock()
	rec := jobRecord{
		Version:  jobRecordVersion,
		ID:       j.ID,
		Seq:      j.Seq,
		Spec:     j.Spec,
		GraphFP:  j.GraphFP,
		ConfigFP: j.ConfigFP,
		Graph:    j.graphPath,
		Vertices: j.vertices,
		State:    j.state,
		Error:    j.errMsg,
		Restarts: j.restarts,
		Resumed:  j.resumed,
		CacheHit: j.cacheHit,
	}
	if j.result != nil {
		summary := *j.result
		summary.Assignment = nil
		summary.Modularity = sanitizeFloat(summary.Modularity)
		rec.Result = &summary
	}
	j.mu.Unlock()

	data, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(j.dir, "job.json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadJobRecord reads one persisted job record.
func loadJobRecord(dir string) (*jobRecord, error) {
	data, err := os.ReadFile(filepath.Join(dir, "job.json"))
	if err != nil {
		return nil, err
	}
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("service: %s: corrupt job record: %w", dir, err)
	}
	if rec.Version != jobRecordVersion {
		return nil, fmt.Errorf("service: %s: unsupported job record version %d", dir, rec.Version)
	}
	if rec.ID == "" {
		return nil, fmt.Errorf("service: %s: job record without an ID", dir)
	}
	return &rec, nil
}
