// Package supervisor implements the self-healing supervision layer: it owns
// the lifetime of a world of Louvain ranks (in-process goroutine worlds and
// rank processes alike) and drives them to completion without operator
// intervention.
//
// Ranks emit lightweight progress beacons (phase, iteration, modularity,
// checkpoint committed), and a Launcher delivers them to the supervisor's
// sink: an in-process rank calls it directly; a rank process sends each
// beacon as a JSON payload over its coordinator heartbeat session, and the
// coordinator forwards it to the driver's controller connection (see
// internal/coord). Every iteration ends in collectives, so the ranks move in
// lock-step and the supervisor judges the world, not each rank: a crashed
// world surfaces through the launcher (process exit, connection loss), a hung
// one through a phi-style accrual detector (no live rank beaconed within a
// window learned from the world's cadence), and a slow one keeps beaconing.
// On a failure Retryable calls transient the supervisor kills the remaining
// world and relaunches it with jittered exponential backoff under a restart
// budget — degrading to a smaller rank count (elastic resume) when the world
// repeatedly fails to come back at its current size. The relaunched ranks
// decide for themselves (core.Start) whether a committed checkpoint is there
// to continue; the supervisor never looks at the directory.
package supervisor

import (
	"encoding/json"
	"math"

	"distlouvain/internal/core"
	"distlouvain/internal/obsv"
)

// KindHello is the one beacon kind core does not emit: the rank's world is
// up, and it has made no progress yet. Every other beacon carries the
// core.ProgressKind of the milestone it reports.
const KindHello core.ProgressKind = "hello"

// Beacon is one lightweight progress report from a rank. Everything except
// Rank mirrors core.ProgressEvent; the struct is kept flat and small because
// it crosses a process boundary as one JSON payload per event.
type Beacon struct {
	Rank       int               `json:"rank"`
	Kind       core.ProgressKind `json:"kind"`
	Phase      int               `json:"phase"`
	Iteration  int               `json:"iter,omitempty"`
	Modularity float64           `json:"q"`
	// Span is the rank's open span path at emission time (e.g.
	// "run/phase[1]/iteration[3]/community-fetch"), present when the rank
	// runs with a tracer. It tells the supervisor WHERE the rank last was,
	// not just how far it got — the hang detector's diagnosis names it.
	Span string `json:"span,omitempty"`
}

// MarshalJSON encodes b with "q" absent when its Q is not finite, which JSON
// cannot carry: core reports −∞ before a run's first phase ends. A decoder
// reads an absent Q as 0.
func (b Beacon) MarshalJSON() ([]byte, error) {
	type plain Beacon
	w := struct {
		plain
		Q *float64 `json:"q,omitempty"` // shadows plain's "q"
	}{plain: plain(b)}
	if !math.IsInf(b.Modularity, 0) && !math.IsNaN(b.Modularity) {
		w.Q = &b.Modularity
	}
	return json.Marshal(w)
}

// CoreProgressTraced adapts a beacon sink to core's Progress hook: install
// the returned function as Config.Progress and every run milestone becomes a
// beacon. When tr is non-nil, each beacon carries the rank's current open
// span path, so the supervisor can report what each rank of a world later
// found hung was doing at its last sign of life. tr should be the same tracer
// the rank runs with.
func CoreProgressTraced(rank int, tr *obsv.Tracer, emit func(Beacon)) func(core.ProgressEvent) {
	return func(ev core.ProgressEvent) {
		b := Beacon{Rank: rank, Kind: ev.Kind, Phase: ev.Phase, Iteration: ev.Iteration, Modularity: ev.Modularity}
		if tr != nil {
			b.Span = tr.Path()
		}
		emit(b)
	}
}
