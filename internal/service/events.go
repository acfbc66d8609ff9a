package service

import (
	"math"
	"sync"
)

// Event is one entry of a job's progress stream. The sequence number is the
// SSE event ID, so clients reconnect with Last-Event-ID and miss nothing:
// the per-job log is append-only and retained for the job's lifetime (it is
// small — a handful of entries per Louvain iteration at worst).
type Event struct {
	Seq         int64   `json:"seq"`
	Kind        string  `json:"kind"` // queued|admitted|phase-start|iteration|checkpoint|restart|cache-hit|done|failed|aborted
	Phase       int     `json:"phase,omitempty"`
	Iteration   int     `json:"iter,omitempty"`
	Modularity  float64 `json:"q,omitempty"`
	Ranks       int     `json:"ranks,omitempty"`
	Restarts    int     `json:"restarts,omitempty"`
	Communities int64   `json:"communities,omitempty"`
	Msg         string  `json:"msg,omitempty"`
}

// Terminal event kinds close the stream.
func (e Event) terminal() bool {
	return e.Kind == "done" || e.Kind == "failed" || e.Kind == "aborted"
}

// hub is a job's event log plus subscriber wakeups. Publishers never block:
// subscribers are woken by a non-blocking signal and read the log at their
// own pace, so a slow SSE client can neither stall the beacon path nor lose
// events.
type hub struct {
	mu     sync.Mutex
	events []Event
	subs   map[*hubSub]struct{}
	closed bool // a terminal event has been published
}

type hubSub struct {
	wake chan struct{}
}

func newHub() *hub {
	return &hub{subs: make(map[*hubSub]struct{})}
}

// publish appends the event (assigning its sequence number) and wakes every
// subscriber. Publishing a terminal event closes the stream for followers.
func (h *hub) publish(e Event) Event {
	e.Modularity = sanitizeFloat(e.Modularity)
	h.mu.Lock()
	e.Seq = int64(len(h.events)) + 1
	h.events = append(h.events, e)
	if e.terminal() {
		h.closed = true
	}
	for s := range h.subs {
		select {
		case s.wake <- struct{}{}:
		default: // already signalled; it will observe this event on its next read
		}
	}
	h.mu.Unlock()
	return e
}

// since returns a copy of every event with Seq > from, plus whether the
// stream has terminated (no further events will ever be published).
func (h *hub) since(from int64) ([]Event, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if from < 0 {
		from = 0
	}
	var out []Event
	if from < int64(len(h.events)) {
		out = append(out, h.events[from:]...)
	}
	return out, h.closed
}

// subscribe registers a wakeup channel; cancel must be called when the
// subscriber goes away.
func (h *hub) subscribe() (s *hubSub, cancel func()) {
	s = &hubSub{wake: make(chan struct{}, 1)}
	h.mu.Lock()
	h.subs[s] = struct{}{}
	h.mu.Unlock()
	return s, func() {
		h.mu.Lock()
		delete(h.subs, s)
		h.mu.Unlock()
	}
}

// sanitizeFloat maps NaN/Inf (core reports −∞ modularity before the first
// phase ends) to 0 so every event and view is valid JSON.
func sanitizeFloat(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

func sanitizeProgress(p Progress) Progress {
	p.Modularity = sanitizeFloat(p.Modularity)
	return p
}
