package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"distlouvain/internal/obsv"
)

// recorder keeps the harness's own spans: one per call the harness makes into
// a layer (gen, dgraph.Build, core.Run, verify, HTTP submit/poll/fetch). They
// stay in memory and are written once, at exit, as a Chrome trace-event file.
// A nil *recorder records nothing, which is how the timed pass runs.
type recorder struct {
	runID string
	epoch time.Time

	mu    sync.Mutex
	spans []hspan
}

// hspan is one harness span. Parent is an index into recorder.spans (-1 for
// a root); Lane separates concurrent callers (0 the harness, 1+r rank r or
// client r) so a viewer draws them on their own rows.
type hspan struct {
	Name       string
	Start, End time.Duration // since recorder.epoch
	Parent     int
	Lane       int
}

func newRecorder(runID string) *recorder {
	return &recorder{runID: runID, epoch: time.Now()}
}

// begin opens a span and returns its handle for end and for children.
func (r *recorder) begin(name string, parent, lane int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, hspan{Name: name, Start: now, End: -1, Parent: parent, Lane: lane})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// span records fn as one harness-lane span under parent.
func (r *recorder) span(name string, parent int, fn func()) {
	sp := r.begin(name, parent, 0)
	fn()
	r.end(sp)
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its direct children cover (children on different lanes may overlap each
// other, so coverage is the union of their intervals, not the sum).
func (r *recorder) selfTimes() map[string]time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]hspan(nil), r.spans...)
	r.mu.Unlock()

	kids := make(map[int][]hspan)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		self[s.Name] += (s.End - s.Start) - covered(kids[i], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi].
func covered(spans []hspan, lo, hi time.Duration) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total time.Duration
	at := lo
	for _, s := range spans {
		start, end := max(s.Start, at), min(s.End, hi)
		if end > start {
			total += end - start
			at = end
		}
	}
	return total
}

// traceEvent is one complete ("X") event of the Chrome trace-event format,
// which chrome://tracing, Perfetto and speedscope all load.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// rankTrace is one rank's obsv tracer with the offset of its clock from the
// recorder's, so program and harness spans share a timeline.
type rankTrace struct {
	tracer *obsv.Tracer
	offset time.Duration // tracer epoch − recorder epoch
}

// newRankTraces makes one tracer per rank, noting when each clock starts.
func (r *recorder) newRankTraces(ranks, capacity int) []rankTrace {
	rts := make([]rankTrace, ranks)
	for i := range rts {
		rts[i] = rankTrace{offset: time.Since(r.epoch), tracer: obsv.NewTracer(i, capacity)}
	}
	return rts
}

// writeChrome writes the harness spans (pid 0) and the ranks' own spans
// (pid 1, one tid per rank) to dir/<workload>.trace.json and returns the
// path.
func (r *recorder) writeChrome(dir, workload string, ranks []rankTrace) (string, error) {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	r.mu.Lock()
	events := make([]traceEvent, 0, len(r.spans))
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, traceEvent{
			Name: s.Name, Cat: "harness", Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start),
			PID: 0, TID: s.Lane,
			Args: map[string]any{"run": r.runID, "id": i, "parent": s.Parent},
		})
	}
	r.mu.Unlock()
	for _, rt := range ranks {
		for _, s := range rt.tracer.Snapshot() {
			events = append(events, traceEvent{
				Name: s.Title(), Cat: s.Kind.String(), Ph: "X",
				TS: us(rt.offset + time.Duration(s.Start)), Dur: us(time.Duration(s.Dur)),
				PID: 1, TID: s.Rank,
				Args: map[string]any{"run": r.runID, "id": s.ID, "parent": s.Parent, "bytes": s.Bytes, "count": s.Count},
			})
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
