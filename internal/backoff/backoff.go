// Package backoff is the repository's single implementation of jittered
// exponential backoff. Every retry loop — the tcp rendezvous dial, the supervisor's restart policy, the coordinator
// client's re-registration — delegates here, so the growth curve, the jitter
// distribution and the determinism contract are stated exactly once.
//
// The delay before attempt k (1-based) doubles from Base up to Max and is
// then jittered uniformly into [d/2, d). Jitter is drawn from a splitmix64
// stream over (Seed, attempt), which makes Delay a pure function: two
// policies with equal fields produce identical schedules, so tests can pin a
// schedule down, while distinct seeds decorrelate the retry storms of a
// whole world relaunching at once.
package backoff

import "time"

// Policy describes one jittered exponential backoff schedule. The zero
// value is usable: fill-in defaults are Base 100ms, Max 10s, Seed 1.
type Policy struct {
	// Base is the first delay; each further attempt doubles it.
	Base time.Duration
	// Max caps the doubling (it does not cap the jittered value below it).
	Max time.Duration
	// Seed selects the jitter stream; equal seeds replay equal schedules.
	Seed uint64
}

// filled returns the policy with defaults applied, leaving p unchanged.
func (p Policy) filled() Policy {
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 10 * time.Second
	}
	if p.Max < p.Base {
		p.Max = p.Base
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Delay returns the jittered delay before attempt number `attempt`
// (1-based; values below 1 are treated as 1): Base doubling per attempt,
// capped at Max, jittered uniformly into [d/2, d). It is deterministic in
// (Seed, attempt) and safe for concurrent use.
func (p Policy) Delay(attempt int) time.Duration {
	p = p.filled()
	if attempt < 1 {
		attempt = 1
	}
	d := p.Base
	for i := 1; i < attempt && d < p.Max; i++ {
		d *= 2
	}
	if d > p.Max {
		d = p.Max
	}
	return d/2 + time.Duration(mix(p.Seed, uint64(attempt))%uint64(d/2))
}

// mix is one splitmix64 output over (seed, n).
func mix(seed, n uint64) uint64 {
	z := seed + n*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Sleeper walks one policy's schedule statefully: each Sleep() call sleeps
// the next attempt's delay. It exists for retry loops that also need to
// respect an overall deadline without sleeping past it.
type Sleeper struct {
	policy  Policy
	attempt int
}

// NewSleeper starts a schedule at attempt 1.
func NewSleeper(p Policy) *Sleeper { return &Sleeper{policy: p.filled()} }

// Attempt reports how many delays have been consumed so far.
func (s *Sleeper) Attempt() int { return s.attempt }

// Next returns the next attempt's delay without sleeping.
func (s *Sleeper) Next() time.Duration {
	s.attempt++
	return s.policy.Delay(s.attempt)
}

// Sleep sleeps the next attempt's delay, truncated so it never crosses
// `deadline` (a zero deadline means none). It reports false — without
// sleeping — when the full delay would land past the deadline, which is the
// retry loop's signal to give up.
func (s *Sleeper) Sleep(deadline time.Time) bool {
	d := s.Next()
	if !deadline.IsZero() && d >= time.Until(deadline) {
		return false
	}
	time.Sleep(d)
	return true
}
