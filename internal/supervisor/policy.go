package supervisor

import (
	"time"

	"distlouvain/internal/backoff"
)

// The restart knobs no caller varies. Backoff doubles up to maxBackoff; after
// degradeAfter consecutive failures at one rank count the supervisor
// concludes the world cannot come back at that size and shrinks it by one
// rank (elastic resume re-splits the checkpoint).
const (
	maxBackoff   = 30 * time.Second
	degradeAfter = 2
)

// Policy governs how the supervisor restarts a failed world: how many times,
// how long to wait between attempts, and how small a world it may degrade
// to.
type Policy struct {
	// MaxRestarts is the relaunch budget for the whole run; exceeding it
	// fails the run with an ExhaustedError. ≤0 selects 5.
	MaxRestarts int
	// BaseBackoff is the first restart delay; each further consecutive
	// failure doubles it up to 30s (or BaseBackoff, if larger), with
	// uniform jitter in [d/2, d) so relaunching ranks don't stampede
	// shared infrastructure. ≤0 selects 500ms.
	BaseBackoff time.Duration
	// MinRanks floors the degradation; needing to shrink below it fails
	// the run with a MinRanksError. ≤0 selects 1.
	MinRanks int
	// Seed drives the jitter stream; runs with equal seeds back off
	// identically (0 selects 1).
	Seed uint64
}

func (p *Policy) fill() {
	if p.MaxRestarts <= 0 {
		p.MaxRestarts = 5
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 500 * time.Millisecond
	}
	if p.MinRanks <= 0 {
		p.MinRanks = 1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// Backoff returns the jittered delay before restart number `restart`
// (1-based), counted over consecutive failures: BaseBackoff doubling per
// restart, capped at 30s, jittered uniformly into [d/2, d). The
// value is deterministic in (Seed, restart); the schedule itself lives in
// the shared internal/backoff package.
func (p Policy) Backoff(restart int) time.Duration {
	p.fill()
	return backoff.Policy{Base: p.BaseBackoff, Max: maxBackoff, Seed: p.Seed}.Delay(restart)
}
