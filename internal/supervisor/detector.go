package supervisor

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// The accrual model's fixed constants. φ = 8 standard deviations of the
// observed inter-beacon gap is the conventional phi-accrual "virtually no
// false positives" operating point; 64 gaps are long enough to smooth one
// phase's cadence and short enough to re-adapt when coarsening makes
// iterations abruptly cheaper; the cap (and bootstrap window) is 24 floors.
const (
	detectorPhi     = 8
	detectorSamples = 64
	capFloors       = 24
)

// Suspect describes one rank the detector has condemned.
type Suspect struct {
	Rank   int
	Silent time.Duration // how long the rank has been beacon-silent
	Window time.Duration // the adaptive window it exceeded
	// LastSpan is the open span path the rank's last beacon carried, when
	// the world runs traced (filled in by the supervisor, not the
	// detector): the phase/collective the rank was last seen inside.
	LastSpan string
}

func (s Suspect) String() string {
	msg := fmt.Sprintf("rank %d silent %v (window %v)", s.Rank, s.Silent.Round(time.Millisecond), s.Window.Round(time.Millisecond))
	if s.LastSpan != "" {
		msg += ", last seen in " + s.LastSpan
	}
	return msg
}

// rankTrack models one rank's inter-beacon gaps with a sliding window,
// maintained incrementally so Condemned stays O(ranks).
type rankTrack struct {
	last       time.Time
	done       bool
	gaps       [detectorSamples]float64 // seconds; ring buffer
	idx, n     int
	sum, sumSq float64
}

func (r *rankTrack) push(gap float64) {
	if r.n == detectorSamples {
		old := r.gaps[r.idx]
		r.sum -= old
		r.sumSq -= old * old
	} else {
		r.n++
	}
	r.gaps[r.idx] = gap
	r.idx = (r.idx + 1) % detectorSamples
	r.sum += gap
	r.sumSq += gap * gap
}

// Detector is a phi-style accrual failure detector over beacon arrivals: it
// learns each rank's beacon cadence and condemns a rank whose silence is
// statistically incompatible with it. Unlike a fixed timeout, the window
// derives from the run's own observed iteration times, so the same detector
// works for millisecond toy graphs and minute-long phases at scale.
//
// All methods are safe for concurrent use; Observe is called from beacon
// readers while Condemned is polled by the supervision loop.
type Detector struct {
	floor, cap time.Duration

	mu    sync.Mutex
	ranks map[int]*rankTrack
}

// NewDetector builds a detector whose windows lie in [hang, 24·hang]. The
// floor absorbs legitimate beacon-free stretches (graph rebuild, checkpoint
// I/O) that the iteration cadence underestimates; the cap is also the
// bootstrap window of a rank with too few beacons to model, so a rank that
// emits nothing at all for 24·hang is declared hung.
func NewDetector(hang time.Duration) *Detector {
	return &Detector{floor: hang, cap: capFloors * hang, ranks: make(map[int]*rankTrack)}
}

// Observe records a beacon arrival from rank at time now.
func (d *Detector) Observe(rank int, now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.ranks[rank]
	if t == nil {
		t = &rankTrack{}
		d.ranks[rank] = t
	} else if gap := now.Sub(t.last).Seconds(); gap > 0 {
		t.push(gap)
	}
	if now.After(t.last) {
		t.last = now
	}
}

// Done marks a rank as finished: it will never be suspected again, however
// long it stays silent (a finished rank legitimately falls quiet while its
// peers drain).
func (d *Detector) Done(rank int, now time.Time) {
	d.Observe(rank, now)
	d.mu.Lock()
	d.ranks[rank].done = true
	d.mu.Unlock()
}

// window computes the rank's adaptive hang window; callers hold d.mu.
func (d *Detector) window(t *rankTrack) time.Duration {
	if t.n < 3 {
		return d.cap // bootstrap: no cadence model yet
	}
	n := float64(t.n)
	mean := t.sum / n
	variance := t.sumSq/n - mean*mean
	std := math.Sqrt(math.Max(variance, 0))
	// Floor σ at a fraction of the mean (and an absolute millisecond):
	// a perfectly regular cadence would otherwise produce a hair-trigger
	// zero-variance window.
	std = math.Max(std, math.Max(mean/4, 1e-3))
	w := time.Duration((mean + detectorPhi*std) * float64(time.Second))
	return min(max(w, d.floor), d.cap)
}

// suspect reports whether a live rank is silent past its window; callers
// hold d.mu.
func (d *Detector) suspect(t *rankTrack, now time.Time) bool {
	return !t.done && now.Sub(t.last) > d.window(t)
}

// Condemned returns the set of ranks to blame for a hang at time now, or
// nil when no rank has crossed its window yet. It is every rank silent past
// its own window (a suspect) plus every live rank whose silence both (a)
// reaches back to within one window of the longest-silent suspect's last
// beacon and (b) is anomalous against the rank's own cadence — it has no
// cadence model yet, or it has been silent for more than twice its own mean
// beacon gap. Ordered by silence descending.
//
// The extra ranks are there because the rank that actually hangs often has
// a *wider* adaptive window than its victims (its beacon cadence was
// irregular, or it was still in bootstrap), so the peers it leaves blocked
// in a collective become suspects first. A pure silent >= maxSilent cut
// still misses one case: a hanger that beaconed right before freezing while
// a victim sat mid-gap is a hair *less* silent than that victim, yet it is
// the death site. The victims starve within one beacon window of the
// freeze, so reaching back one suspect-window from the longest silence
// covers the hanger; condition (b) keeps ranks that were beaconing healthily
// until the freeze out of the diagnosis.
func (d *Detector) Condemned(now time.Time) []Suspect {
	d.mu.Lock()
	defer d.mu.Unlock()
	var maxSilent, reach time.Duration
	hung := false
	for _, t := range d.ranks {
		if d.suspect(t, now) {
			hung = true
			if s := now.Sub(t.last); s > maxSilent {
				maxSilent = s
				reach = d.window(t)
			}
		}
	}
	if !hung {
		return nil
	}
	bar := maxSilent - reach
	var out []Suspect
	for rank, t := range d.ranks {
		if t.done {
			continue
		}
		silent := now.Sub(t.last)
		anomalous := t.n < 3 || silent.Seconds() > 2*t.sum/float64(t.n)
		if d.suspect(t, now) || (silent >= bar && anomalous) {
			out = append(out, Suspect{Rank: rank, Silent: silent, Window: d.window(t)})
		}
	}
	sortSuspects(out)
	return out
}

// Live returns every rank not yet marked Done, with its current silence and
// window, longest-silent first. A hang kills the whole world, so the
// post-mortem wants every rank that died with it — including the original
// hanger, whose adaptive window may be wider than its blocked victims' and
// so may not have crossed it yet when the world is condemned. The silence
// ordering puts that original hanger (earliest last beacon) ahead of the
// victims it starved, whatever their windows decided.
func (d *Detector) Live(now time.Time) []Suspect {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []Suspect
	for rank, t := range d.ranks {
		if t.done {
			continue
		}
		out = append(out, Suspect{Rank: rank, Silent: now.Sub(t.last), Window: d.window(t)})
	}
	sortSuspects(out)
	return out
}

// sortSuspects orders by silence descending — the longest-silent rank is
// the likeliest root cause (it stopped beaconing first; the others starved
// waiting on it in a collective) — with rank ascending as the tie-break for
// deterministic diagnostics.
func sortSuspects(s []Suspect) {
	less := func(a, b Suspect) bool {
		if a.Silent != b.Silent {
			return a.Silent > b.Silent
		}
		return a.Rank < b.Rank
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Reset discards every rank model. The supervisor calls it between attempts
// so a relaunched world starts from the bootstrap window instead of being
// judged by its predecessor's cadence.
func (d *Detector) Reset() {
	d.mu.Lock()
	d.ranks = make(map[int]*rankTrack)
	d.mu.Unlock()
}
