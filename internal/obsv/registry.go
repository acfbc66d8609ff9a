package obsv

import (
	"maps"
	"math"
	"sort"
	"sync"
	"time"
)

// Record is one entry on the registry's event timeline: a phase result, a
// checkpoint, a beacon, a restart, a per-generation traffic summary.
type Record struct {
	T      time.Duration // since registry creation
	Gen    int           // supervisor generation (0 before any restart)
	Kind   string
	Name   string
	Fields map[string]float64
}

// counterSource is a live cumulative counter set (e.g. mpi.Stats) plus the
// snapshot taken at the current generation's start.
type counterSource struct {
	read func() map[string]int64
	base map[string]int64
}

// Registry unifies the process's observability state into one timeline:
// counter sources that only ever grow (traffic stats), and discrete records
// (phase stats, checkpoints, beacons, restarts).
//
// Counter sources are cumulative over the life of the process, which is
// exactly why per-generation figures under a supervisor must be computed by
// snapshot-and-delta: BeginGeneration snapshots every source, and the
// generation's figures (RecordGenerationCounters, the snapshot's
// generation_delta) report only what accrued since. Without that, traffic
// from a killed generation bleeds into the next one's numbers.
//
// All methods are nil-receiver safe and concurrency safe.
type Registry struct {
	rank  int
	epoch time.Time

	mu      sync.Mutex
	gen     int
	sources map[string]*counterSource
	records []Record
	maxRec  int
}

// NewRegistry returns an empty registry for the given rank.
func NewRegistry(rank int) *Registry {
	return &Registry{
		rank:    rank,
		epoch:   time.Now(),
		sources: make(map[string]*counterSource),
		maxRec:  4096,
	}
}

// Rank returns the rank the registry reports for.
func (r *Registry) Rank() int {
	if r == nil {
		return 0
	}
	return r.rank
}

// AttachCounters registers (or replaces) a live cumulative counter source.
// The source's generation baseline is snapshotted immediately, so a source
// attached mid-generation deltas from its attach point.
func (r *Registry) AttachCounters(name string, read func() map[string]int64) {
	if r == nil || read == nil {
		return
	}
	r.mu.Lock()
	r.sources[name] = &counterSource{read: read, base: read()}
	r.mu.Unlock()
}

// BeginGeneration starts a new supervisor generation: every counter source
// is re-snapshotted so that the generation's figures report only its own
// increments. Returns the new generation number.
func (r *Registry) BeginGeneration() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gen++
	for _, s := range r.sources {
		s.base = s.read()
	}
	r.addRecordLocked("generation", "begin", nil)
	return r.gen
}

// RecordEvent appends a discrete record to the timeline, stamped with the
// current time and generation. fields may be nil.
func (r *Registry) RecordEvent(kind, name string, fields map[string]float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.addRecordLocked(kind, name, fields)
	r.mu.Unlock()
}

// RecordGenerationCounters appends one record per counter source holding
// that source's per-generation deltas — call at the end of a generation to
// freeze its traffic figures into the timeline.
func (r *Registry) RecordGenerationCounters() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.sources))
	for name := range r.sources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		src := r.sources[name]
		_, d := src.delta(src.base)
		fields := make(map[string]float64, len(d))
		for k, v := range d {
			fields[k] = float64(v)
		}
		r.addRecordLocked("counters", name, fields)
	}
}

// delta reads the source and returns its counters and their increase over
// base, the snapshot taken at the generation's start.
func (s *counterSource) delta(base map[string]int64) (cur, d map[string]int64) {
	cur = s.read()
	d = make(map[string]int64, len(cur))
	for k, v := range cur {
		d[k] = v - base[k]
	}
	return cur, d
}

// addRecordLocked appends under r.mu, halving the buffer when full so the
// timeline is bounded but keeps its most recent history.
func (r *Registry) addRecordLocked(kind, name string, fields map[string]float64) {
	if len(r.records) >= r.maxRec {
		keep := r.maxRec / 2
		r.records = append(r.records[:0], r.records[len(r.records)-keep:]...)
	}
	r.records = append(r.records, Record{
		T: time.Since(r.epoch), Gen: r.gen, Kind: kind, Name: name, Fields: finite(fields),
	})
}

// finite returns fields without the ±Inf and NaN values JSON cannot encode:
// such a field is absent, as Beacon.MarshalJSON leaves out a −∞ Q, so that
// ExpvarSnapshot always marshals. The caller's map is copied, not changed.
func finite(fields map[string]float64) map[string]float64 {
	nonFinite := func(_ string, v float64) bool { return math.IsInf(v, 0) || math.IsNaN(v) }
	for k, v := range fields {
		if nonFinite(k, v) {
			fields = maps.Clone(fields)
			maps.DeleteFunc(fields, nonFinite)
			break
		}
	}
	return fields
}

// Records returns a copy of the event timeline, oldest first.
func (r *Registry) Records() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, len(r.records))
	copy(out, r.records)
	return out
}

// ExpvarSnapshot returns a JSON-friendly view of the registry, shaped for
// publication via expvar.Func (served on -pprof-addr at /debug/vars).
func (r *Registry) ExpvarSnapshot() any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	gen := r.gen
	names := make([]string, 0, len(r.sources))
	for name := range r.sources {
		names = append(names, name)
	}
	nrec := len(r.records)
	var last []Record
	const tail = 16
	if nrec > 0 {
		k := min(tail, nrec)
		last = make([]Record, k)
		copy(last, r.records[nrec-k:])
	}
	r.mu.Unlock()

	sort.Strings(names)
	counters := make(map[string]map[string]int64, len(names))
	deltas := make(map[string]map[string]int64, len(names))
	for _, name := range names {
		r.mu.Lock()
		src := r.sources[name]
		base := src.base
		r.mu.Unlock()
		counters[name], deltas[name] = src.delta(base)
	}
	return map[string]any{
		"rank":             r.rank,
		"generation":       gen,
		"counters":         counters,
		"generation_delta": deltas,
		"records_total":    nrec,
		"records_tail":     last,
	}
}
