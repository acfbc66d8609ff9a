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
// world, picks the latest committed checkpoint and relaunches via core.Resume
// with jittered exponential backoff under a restart budget — degrading to a
// smaller rank count (elastic resume) when the world repeatedly fails to come
// back at its current size.
package supervisor

import (
	"distlouvain/internal/core"
	"distlouvain/internal/obsv"
)

// Kind labels one beacon event.
type Kind string

// Beacon kinds, in the order a healthy rank emits them.
const (
	KindHello      Kind = "hello"       // the rank's world is up; no progress yet
	KindPhaseStart Kind = "phase-start" // a phase's iteration loop is about to run
	KindIteration  Kind = "iteration"   // one Louvain iteration completed
	KindCheckpoint Kind = "checkpoint"  // a phase snapshot committed world-wide
	KindDone       Kind = "done"        // the rank's run finished cleanly
)

// Beacon is one lightweight progress report from a rank. Everything except
// Rank mirrors core.ProgressEvent; the struct is kept flat and small because
// it crosses a process boundary as one JSON payload per event.
type Beacon struct {
	Rank       int     `json:"rank"`
	Kind       Kind    `json:"kind"`
	Phase      int     `json:"phase"`
	Iteration  int     `json:"iter,omitempty"`
	Modularity float64 `json:"q"`
	// Span is the rank's open span path at emission time (e.g.
	// "run/phase[1]/iteration[3]/community-fetch"), present when the rank
	// runs with a tracer. It tells the supervisor WHERE the rank last was,
	// not just how far it got — the hang detector's diagnosis names it.
	Span string `json:"span,omitempty"`
}

// CoreProgressTraced adapts a beacon sink to core's Progress hook: install
// the returned function as Config.Progress and every run milestone becomes a
// beacon. When tr is non-nil, each beacon carries the rank's current open
// span path, so the supervisor can report what each rank of a world later
// found hung was doing at its last sign of life. tr should be the same tracer
// the rank runs with.
func CoreProgressTraced(rank int, tr *obsv.Tracer, emit func(Beacon)) func(core.ProgressEvent) {
	return func(ev core.ProgressEvent) {
		var k Kind
		switch ev.Kind {
		case core.ProgressPhaseStart:
			k = KindPhaseStart
		case core.ProgressIteration:
			k = KindIteration
		case core.ProgressCheckpoint:
			k = KindCheckpoint
		case core.ProgressDone:
			k = KindDone
		default:
			return // unknown milestone from a newer core: not a liveness signal
		}
		b := Beacon{Rank: rank, Kind: k, Phase: ev.Phase, Iteration: ev.Iteration, Modularity: ev.Modularity}
		if tr != nil {
			b.Span = tr.Path()
		}
		emit(b)
	}
}
