package supervisor

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// The world model's fixed constants. φ = 8 standard deviations of the
// observed inter-beacon gap is the conventional phi-accrual "virtually no
// false positives" operating point; the ring keeps the last 64 gaps per rank
// of the world, long enough to smooth one phase's cadence across iterations
// (lock-step ranks add near-identical gaps each iteration) and short enough
// to re-adapt when coarsening makes iterations abruptly cheaper; the window
// is the cap (24 floors) until every live rank has 3 gaps of its own.
const (
	detectorPhi     = 8
	detectorSamples = 64
	detectorBoot    = 3
	capFloors       = 24
)

// Suspect is one live rank of a world the detector found hung.
type Suspect struct {
	Rank   int
	Silent time.Duration // how long the rank has been beacon-silent
	// LastSpan is the open span path the rank's last beacon carried, when
	// the world runs traced (filled in by the supervisor, not the
	// detector): the phase/collective the rank was last seen inside.
	LastSpan string
}

func (s Suspect) String() string {
	msg := fmt.Sprintf("rank %d silent %v", s.Rank, s.Silent.Round(time.Millisecond))
	if s.LastSpan != "" {
		msg += ", last seen in " + s.LastSpan
	}
	return msg
}

// rankState is what the detector remembers of one rank.
type rankState struct {
	last time.Time
	gaps int // own gaps fed into the ring
	done bool
}

// Detector is a phi-style accrual failure detector over one world's beacons.
// Every iteration ends in collectives, so the ranks move in lock-step and a
// rank that hangs silences every peer within one iteration. The detector
// therefore pools every rank's own inter-beacon gaps into one cadence, and
// the world is hung when no live rank has beaconed within the window it
// allows: one rank's lost beacons prove nothing while its peers progress.
// The window derives from the run's own iteration times, so one detector
// serves millisecond toy graphs and minute-long phases at scale.
//
// All methods are safe for concurrent use; Observe is called from beacon
// readers while Hung is polled by the supervision loop.
type Detector struct {
	floor, cap time.Duration

	mu         sync.Mutex
	ranks      map[int]*rankState
	gaps       []float64 // seconds, oldest first; ≤ detectorSamples per rank
	sum, sumSq float64
}

// NewDetector builds a detector whose window lies in [hang, 24·hang]. The
// floor absorbs legitimate beacon-free stretches (graph rebuild, checkpoint
// I/O) that the iteration cadence underestimates; the cap is also the
// bootstrap window of a world with too few beacons to model (each rank's
// slow start — reading its share, building, resuming — is one gap), so a
// world that emits nothing at all for 24·hang is declared hung.
func NewDetector(hang time.Duration) *Detector {
	return &Detector{floor: hang, cap: capFloors * hang, ranks: make(map[int]*rankState)}
}

// Observe records a beacon arrival from rank at time now; the gap since the
// rank's previous beacon joins the world's cadence.
func (d *Detector) Observe(rank int, now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := d.ranks[rank]
	if r == nil {
		r = &rankState{}
		d.ranks[rank] = r
	} else if gap := now.Sub(r.last).Seconds(); gap > 0 {
		r.gaps++
		d.gaps = append(d.gaps, gap)
		d.sum += gap
		d.sumSq += gap * gap
		if len(d.gaps) > detectorSamples*len(d.ranks) {
			old := d.gaps[0]
			d.gaps = d.gaps[1:]
			d.sum -= old
			d.sumSq -= old * old
		}
	}
	if now.After(r.last) {
		r.last = now
	}
}

// Done marks a rank as finished: it is never listed again, however long it
// stays silent (a finished rank legitimately falls quiet while its peers
// drain).
func (d *Detector) Done(rank int, now time.Time) {
	d.Observe(rank, now)
	d.mu.Lock()
	d.ranks[rank].done = true
	d.mu.Unlock()
}

// window is the world's current hang window: mean + 8σ of the pooled gaps,
// with σ at least max(mean/4, 1ms), clamped to [floor, cap] — the cap while
// some live rank has fewer than three gaps of its own.
func (d *Detector) window() time.Duration {
	boot := len(d.gaps) < detectorBoot
	for _, r := range d.ranks {
		boot = boot || !r.done && r.gaps < detectorBoot
	}
	if boot {
		return d.cap // bootstrap: some live rank's cadence is not modelled yet
	}
	n := float64(len(d.gaps))
	mean := d.sum / n
	std := math.Sqrt(math.Max(d.sumSq/n-mean*mean, 0))
	// Floor σ at a fraction of the mean (and an absolute millisecond):
	// a perfectly regular cadence would otherwise produce a hair-trigger
	// zero-variance window.
	std = math.Max(std, math.Max(mean/4, 1e-3))
	w := time.Duration((mean + detectorPhi*std) * float64(time.Second))
	return min(max(w, d.floor), d.cap)
}

// Hung returns the window in force at now, and no suspects while some live
// (not Done) rank has beaconed within it. Otherwise the world is hung, and
// Hung lists every live rank, longest-silent first — the likeliest root
// cause stopped beaconing first, the others starved waiting on it in a
// collective — with rank ascending as the tie-break.
func (d *Detector) Hung(now time.Time) ([]Suspect, time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.window()
	var out []Suspect
	for rank, r := range d.ranks {
		if r.done {
			continue
		}
		silent := now.Sub(r.last)
		if silent <= w {
			return nil, w
		}
		out = append(out, Suspect{Rank: rank, Silent: silent})
	}
	slices.SortFunc(out, func(a, b Suspect) int {
		return cmp.Or(cmp.Compare(b.Silent, a.Silent), cmp.Compare(a.Rank, b.Rank))
	})
	return out, w
}

// Reset discards the world model. The supervisor calls it between attempts
// so a relaunched world starts from the bootstrap window instead of being
// judged by its predecessor's cadence.
func (d *Detector) Reset() {
	d.mu.Lock()
	d.ranks = make(map[int]*rankState)
	d.gaps, d.sum, d.sumSq = d.gaps[:0], 0, 0
	d.mu.Unlock()
}
