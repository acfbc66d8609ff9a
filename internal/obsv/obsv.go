// Package obsv is the rank-level observability layer: a low-overhead span
// tracer plus a metrics registry that unify where a rank spent its time
// (phases, iterations, collectives, checkpoints) with what it accomplished
// (modularity, moves, traffic counters, restarts).
//
// The tracer is designed around two constraints:
//
//   - Disabled tracing must cost nothing. Every method is safe on a nil
//     *Tracer and returns immediately without allocating, so call sites
//     instrument unconditionally (`sp := tr.Begin(...); defer sp.End()`)
//     and the nil receiver is the off switch.
//
//   - Enabled tracing must be cheap enough to leave on in production runs.
//     Completed spans land in a preallocated ring buffer (oldest entries
//     are overwritten, never reallocated), timestamps come from Go's
//     monotonic clock, and the hot path takes one short mutex section.
//
// Span structure — parent links, names, phase/iteration positions — is
// deterministic for a fixed seed on the in-process transport, which is what
// the golden-trace tests assert. Durations and byte counts are not.
package obsv

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Kind classifies a span for reporting. The category decides which column
// of the §V-A breakdown a span's duration lands in (see report.go).
type Kind uint8

const (
	// KindRun covers one whole Run/Resume invocation on a rank.
	KindRun Kind = iota
	// KindPhase covers one Louvain phase (iterate + flatten + rebuild).
	KindPhase
	// KindIteration covers one label-propagation iteration inside a phase.
	KindIteration
	// KindStep is a named local-compute step (sweep, modularity-compute...).
	KindStep
	// KindP2P is a named point-to-point exchange step (ghost/community
	// traffic); collectives issued inside it are attributed to it.
	KindP2P
	// KindCollective is one collective operation on the communicator.
	KindCollective
	// KindCheckpoint covers checkpoint writes and resume loads.
	KindCheckpoint
	// KindEvent is an instantaneous marker (no duration).
	KindEvent
)

var kindNames = [...]string{
	KindRun:        "run",
	KindPhase:      "phase",
	KindIteration:  "iteration",
	KindStep:       "step",
	KindP2P:        "p2p",
	KindCollective: "collective",
	KindCheckpoint: "checkpoint",
	KindEvent:      "event",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Span is one completed (or instantaneous) interval on a rank's timeline.
// IDs are assigned in Begin order and start at 1; Parent is 0 for roots.
// Start and Dur are nanoseconds on the tracer's monotonic clock.
type Span struct {
	ID     uint64
	Parent uint64
	Rank   int
	Kind   Kind
	Name   string
	Phase  int
	Iter   int
	Start  int64
	Dur    int64
	Bytes  int64
	// Count is a span-defined item tally (vertices the sweep evaluated,
	// frontier size at build). Like Bytes it is informational only and
	// excluded from golden structure comparison.
	Count int64
}

// Title renders the span's display name, folding in the phase or iteration
// index for the structural kinds so traces read "phase[2]/iteration[5]".
func (s Span) Title() string { return spanTitle(s.Kind, s.Name, s.Phase, s.Iter) }

func spanTitle(kind Kind, name string, phase, iter int) string {
	switch kind {
	case KindPhase:
		return fmt.Sprintf("%s[%d]", name, phase)
	case KindIteration:
		return fmt.Sprintf("%s[%d]", name, iter)
	}
	return name
}

// Label is the one-line human form used in post-mortem dumps.
func (s Span) Label() string {
	return fmt.Sprintf("%s %s (phase %d, iter %d, %v)",
		s.Kind, s.Title(), s.Phase, s.Iter, time.Duration(s.Dur).Round(time.Microsecond))
}

// openRef tracks a currently-open scoped span on the driver stack.
type openRef struct {
	id          uint64
	kind        Kind
	name        string
	phase, iter int
}

// Tracer records spans for one rank. All methods are safe on a nil
// receiver (no-ops) and safe for concurrent use. The scope stack that
// determines parentage is driven by the rank's driver goroutine via
// Begin/End, the only goroutine that opens spans; another goroutine may
// record an Event, which parents under the current scope without touching
// the stack, or read Path.
type Tracer struct {
	rank  int
	epoch time.Time

	mu      sync.Mutex
	nextID  uint64
	open    []openRef
	ring    []Span
	head    int // next write position
	n       int // live entries in ring
	dropped uint64
	phase   int
	iter    int
}

// DefaultCapacity is the ring size used when NewTracer is given a
// non-positive capacity: 64Ki spans ≈ 5 MB, enough for hundreds of
// iterations of full collective detail.
const DefaultCapacity = 1 << 16

// NewTracer returns an enabled tracer for the given rank. capacity bounds
// the completed-span ring; once full, the oldest spans are overwritten and
// counted in Dropped.
func NewTracer(rank, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		rank:  rank,
		epoch: time.Now(),
		ring:  make([]Span, capacity),
		open:  make([]openRef, 0, 64),
	}
}

// Rank returns the rank this tracer records for (0 when disabled).
func (t *Tracer) Rank() int {
	if t == nil {
		return 0
	}
	return t.rank
}

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// SetPos records the driver's current phase/iteration position; subsequent
// spans are stamped with it.
func (t *Tracer) SetPos(phase, iter int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phase, t.iter = phase, iter
	t.mu.Unlock()
}

// SpanScope is the handle returned by Begin. It is a plain value: keep it on
// the stack and call End exactly once (deferred Ends run during error
// unwinding, which is what makes the ring tail useful as post-mortem
// evidence). End on a zero or already-ended scope is a no-op.
type SpanScope struct {
	t           *Tracer
	id          uint64
	parent      uint64
	kind        Kind
	name        string
	phase, iter int
	start       int64
	bytes       int64
	count       int64
}

// Begin opens a scoped span: it is parented under the innermost open span
// and becomes the parent of spans begun before its End. Driver-goroutine
// use only.
func (t *Tracer) Begin(kind Kind, name string) SpanScope {
	if t == nil {
		return SpanScope{}
	}
	start := t.now()
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	var parent uint64
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1].id
	}
	phase, iter := t.phase, t.iter
	t.open = append(t.open, openRef{id: id, kind: kind, name: name, phase: phase, iter: iter})
	t.mu.Unlock()
	return SpanScope{
		t: t, id: id, parent: parent, kind: kind, name: name,
		phase: phase, iter: iter, start: start,
	}
}

// SetBytes accumulates a payload size onto the span (informational only;
// excluded from golden structure comparison).
func (s *SpanScope) SetBytes(n int64) {
	if s.t == nil {
		return
	}
	s.bytes += n
}

// SetCount accumulates an item tally onto the span (informational only;
// excluded from golden structure comparison).
func (s *SpanScope) SetCount(n int64) {
	if s.t == nil {
		return
	}
	s.count += n
}

// End closes the span and records it in the ring. Out-of-order Ends are
// tolerated: the span is removed from wherever it sits on the scope stack.
func (s *SpanScope) End() {
	t := s.t
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i].id == s.id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
	t.record(Span{
		ID: s.id, Parent: s.parent, Rank: t.rank, Kind: s.kind, Name: s.name,
		Phase: s.phase, Iter: s.iter, Start: s.start, Dur: end - s.start, Bytes: s.bytes, Count: s.count,
	})
	t.mu.Unlock()
	s.t = nil
}

// Event records an instantaneous marker under the current scope.
func (t *Tracer) Event(kind Kind, name string) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.nextID++
	var parent uint64
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1].id
	}
	t.record(Span{
		ID: t.nextID, Parent: parent, Rank: t.rank, Kind: kind, Name: name,
		Phase: t.phase, Iter: t.iter, Start: now,
	})
	t.mu.Unlock()
}

// record appends a completed span; caller holds t.mu.
func (t *Tracer) record(sp Span) {
	if t.n == len(t.ring) {
		t.dropped++
	} else {
		t.n++
	}
	t.ring[t.head] = sp
	t.head = (t.head + 1) % len(t.ring)
}

// Path renders the currently-open scope chain, e.g.
// "run/phase[1]/iteration[3]/community-fetch/alltoall". Empty when nothing
// is open. This is what beacons carry and what the hang detector reports.
func (t *Tracer) Path() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.open) == 0 {
		return ""
	}
	var b strings.Builder
	for i, o := range t.open {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(spanTitle(o.kind, o.name, o.phase, o.iter))
	}
	return b.String()
}

// Snapshot returns the completed spans currently in the ring, oldest first.
// Note the ring orders by End time while IDs order by Begin time; consumers
// that need begin order (StructureLines, BuildReport) sort by ID.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, t.n)
	start := (t.head - t.n + len(t.ring)) % len(t.ring)
	for i := 0; i < t.n; i++ {
		out[i] = t.ring[(start+i)%len(t.ring)]
	}
	return out
}

// Tail returns the k most recently completed spans, oldest first — the
// post-mortem view of what a rank was doing when it died.
func (t *Tracer) Tail(k int) []Span {
	s := t.Snapshot()
	if len(s) > k {
		s = s[len(s)-k:]
	}
	return s
}

// Dropped counts completed spans overwritten because the ring was full.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
