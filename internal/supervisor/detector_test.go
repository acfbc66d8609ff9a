package supervisor

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// hung returns the suspects Hung reports at now.
func hung(d *Detector, now time.Time) []Suspect {
	sus, _ := d.Hung(now)
	return sus
}

// windowAt returns the window Hung judges by at now.
func windowAt(d *Detector, now time.Time) time.Duration {
	_, w := d.Hung(now)
	return w
}

// hungRanks lists the ranks Hung returns at now, in its order.
func hungRanks(d *Detector, now time.Time) []int {
	var out []int
	for _, s := range hung(d, now) {
		out = append(out, s.Rank)
	}
	return out
}

// beaconEvery feeds count beacons from rank, gap apart from start, and
// returns the time of the last one.
func beaconEvery(d *Detector, rank int, start time.Time, gap time.Duration, count int) time.Time {
	now := start
	for i := 0; i < count; i++ {
		d.Observe(rank, now)
		now = now.Add(gap)
	}
	return now.Add(-gap)
}

func TestDetectorBootstrapWindow(t *testing.T) {
	d := NewDetector(10 * time.Millisecond)
	t0 := time.Unix(1000, 0)
	d.Observe(0, t0)
	d.Observe(1, t0)

	// With no cadence model the world gets the full bootstrap window, the cap.
	if w := windowAt(d, t0); w != 240*time.Millisecond {
		t.Fatalf("bootstrap window = %v, want 24 floors", w)
	}
	if got := hung(d, t0.Add(240*time.Millisecond)); got != nil {
		t.Fatalf("hung inside the bootstrap window: %v", got)
	}
	// Past it the world is hung; a rank never observed at all is not listed.
	if got := hungRanks(d, t0.Add(241*time.Millisecond)); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("hung past the bootstrap window = %v, want [0 1]", got)
	}
}

func TestDetectorBootstrapIsPerRank(t *testing.T) {
	// Every rank is seeded at launch and says hello at once, then goes
	// silent while it reads its share and builds (or resumes): one tiny gap
	// per rank must not end the bootstrap, or the slow start is condemned
	// by the floor.
	hang := 10 * time.Millisecond
	d := NewDetector(hang)
	t0 := time.Unix(1000, 0)
	for r := range 3 {
		d.Observe(r, t0)
		d.Observe(r, t0.Add(time.Microsecond))
	}
	if got := hung(d, t0.Add(10*hang)); got != nil {
		t.Fatalf("slow start hung after 10 floors: %v", got)
	}
	// The window stays the cap until every live rank has three gaps: ranks
	// 0 and 1 on a steady cadence would give 3·hang, rank 2 has two gaps.
	e := NewDetector(hang)
	beaconEvery(e, 0, t0, hang, 10)
	beaconEvery(e, 1, t0, hang, 10)
	last := beaconEvery(e, 2, t0, hang, 3)
	if w := windowAt(e, last); w != capFloors*hang {
		t.Fatalf("window = %v with rank 2 at two gaps, want the cap", w)
	}
	e.Observe(2, last.Add(hang))
	if w := windowAt(e, last); w != 3*hang {
		t.Fatalf("window = %v once every rank has three gaps, want 3·%v", w, hang)
	}
	// A done rank's missing gaps do not hold the bootstrap open.
	e.Done(3, last)
	if w := windowAt(e, last); w != 3*hang {
		t.Fatalf("window = %v with a done rank at no gaps, want 3·%v", w, hang)
	}
}

func TestDetectorWindowCoversWorldCadence(t *testing.T) {
	// 16 lock-step ranks whose iterations take 10ms, except one in 16 that
	// takes 100ms (a rebuild, a checkpoint). Within one iteration every rank
	// adds the same gap, so a ring sized for one rank would hold only the
	// last few iterations and forget the slow one; the ring keeps 64 gaps
	// per rank, so the slow iterations stay in the model.
	const p = 16
	d := NewDetector(5 * time.Millisecond) // cap 120ms
	now := time.Unix(1000, 0)
	for k := range 200 {
		for r := range p {
			d.Observe(r, now)
		}
		gap := 10 * time.Millisecond
		if k%16 == 1 {
			gap = 100 * time.Millisecond
		}
		now = now.Add(gap)
		if got := hung(d, now); got != nil {
			t.Fatalf("iteration %d (%v): hung %v (window %v)", k, gap, got, windowAt(d, now))
		}
	}
}

func TestDetectorAdaptiveWindow(t *testing.T) {
	d := NewDetector(20 * time.Millisecond)
	t0 := time.Unix(1000, 0)
	// Two ranks on a steady 100ms cadence, 50ms out of phase: each rank's
	// own gaps feed the world model, not the 50ms between the two.
	beaconEvery(d, 0, t0, 100*time.Millisecond, 20)
	last := beaconEvery(d, 1, t0.Add(50*time.Millisecond), 100*time.Millisecond, 20)
	// Zero-variance cadence: σ floors at mean/4, so w = mean + 8·mean/4 = 3·mean.
	if w, want := windowAt(d, last), 300*time.Millisecond; w != want {
		t.Fatalf("adaptive window = %v, want %v", w, want)
	}
	if got := hung(d, last.Add(300*time.Millisecond)); got != nil {
		t.Fatalf("hung while rank 1 beaconed within the window: %v", got)
	}
	if got := hungRanks(d, last.Add(301*time.Millisecond)); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("hung at 301ms world silence = %v, want [0 1]", got)
	}

	// The window clamps to the floor from below...
	fast := NewDetector(time.Second)
	beaconEvery(fast, 0, t0, time.Millisecond, 20)
	if w := windowAt(fast, t0); w != time.Second {
		t.Fatalf("fast cadence window = %v, want the floor", w)
	}
	// ...and to 24 floors from above.
	slow := NewDetector(10 * time.Millisecond)
	beaconEvery(slow, 0, t0, 10*time.Second, 20)
	if w := windowAt(slow, t0); w != 240*time.Millisecond {
		t.Fatalf("slow cadence window = %v, want the cap", w)
	}
}

func TestDetectorWindowReadaptsAfterRegimeChange(t *testing.T) {
	// A cadence that abruptly becomes 10x cheaper (coarsened graph) must
	// shrink the window once the 64-gap sliding window rolls over.
	d := NewDetector(200 * time.Millisecond)
	now := beaconEvery(d, 0, time.Unix(1000, 0), time.Second, 10)
	wide := windowAt(d, now)
	now = beaconEvery(d, 0, now.Add(100*time.Millisecond), 100*time.Millisecond, 70)
	narrow := windowAt(d, now)
	if narrow >= wide {
		t.Fatalf("window did not re-adapt: %v -> %v", wide, narrow)
	}
	if diff := (narrow - 300*time.Millisecond).Abs(); diff > time.Microsecond {
		t.Fatalf("re-adapted window = %v, want 3·100ms once only fast gaps remain", narrow)
	}
}

func TestDetectorDoneExemption(t *testing.T) {
	d := NewDetector(time.Millisecond)
	t0 := time.Unix(1000, 0)
	d.Observe(0, t0)
	d.Done(1, t0)

	// A done rank is never listed, and its own beacon — even a late one —
	// does not keep the world alive.
	late := t0.Add(time.Hour)
	d.Done(1, late)
	if got := hungRanks(d, late); !slices.Equal(got, []int{0}) {
		t.Fatalf("hung = %v, want only rank 0", got)
	}
	// A world whose every rank is done is never hung.
	d.Done(0, late)
	if got := hung(d, late.Add(time.Hour)); got != nil {
		t.Fatalf("finished world hung: %v", got)
	}
}

func TestDetectorSuspectsSortedAndReset(t *testing.T) {
	d := NewDetector(time.Millisecond)
	t0 := time.Unix(1000, 0)
	for _, r := range []int{5, 1, 3} {
		d.Observe(r, t0)
	}
	sus := hung(d, t0.Add(time.Minute))
	if len(sus) != 3 {
		t.Fatalf("hung = %v, want 3", sus)
	}
	for i, want := range []int{1, 3, 5} {
		if sus[i].Rank != want || sus[i].Silent != time.Minute {
			t.Fatalf("hung = %v, want ranks 1,3,5 each silent 1m", sus)
		}
	}

	beaconEvery(d, 1, t0, time.Second, 10)
	d.Reset()
	if w := windowAt(d, t0); w != 24*time.Millisecond {
		t.Fatalf("window after reset = %v, want the cap", w)
	}
	if sus := hung(d, t0.Add(time.Hour)); len(sus) != 0 {
		t.Fatalf("hung after reset = %v, want none", sus)
	}
}

func TestDetectorHungListsEarlierSilentHanger(t *testing.T) {
	// Rank 0 hangs at 1s into a steady 100ms cadence; ranks 1 and 2 starve
	// in the collective it never reaches one and two beacons later.
	d := NewDetector(20 * time.Millisecond)
	t0 := time.Unix(1000, 0)
	last0 := beaconEvery(d, 0, t0, 100*time.Millisecond, 11)
	last1 := beaconEvery(d, 1, t0, 100*time.Millisecond, 12)
	last2 := beaconEvery(d, 2, t0, 100*time.Millisecond, 13)
	if w := windowAt(d, last2); w != 300*time.Millisecond {
		t.Fatalf("window = %v, scenario broken", w)
	}

	// The hanger is past the window long before the world is: rank 2's
	// last beacon keeps it alive.
	if got := hung(d, last2.Add(300*time.Millisecond)); got != nil {
		t.Fatalf("hung while rank 2 beaconed within the window: %v", got)
	}
	probe := last2.Add(301 * time.Millisecond)
	sus := hung(d, probe)
	if got := hungRanks(d, probe); !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("hung = %v, want the hanger first, then its victims", got)
	}
	for i, last := range []time.Time{last0, last1, last2} {
		if sus[i].Silent != probe.Sub(last) {
			t.Fatalf("rank %d silent %v, want %v", i, sus[i].Silent, probe.Sub(last))
		}
	}
}

func TestDetectorHungListsMidGapHanger(t *testing.T) {
	// The hanger (rank 0) beacons right before freezing while its victims
	// sit mid-gap, so it is the *least* silent rank of the dead world: it
	// must still be listed.
	d := NewDetector(20 * time.Millisecond)
	t0 := time.Unix(1000, 0)
	beaconEvery(d, 1, t0, 100*time.Millisecond, 20)                          // last at 1.9s
	beaconEvery(d, 2, t0.Add(30*time.Millisecond), 100*time.Millisecond, 20) // last at 1.93s
	last0 := beaconEvery(d, 0, t0.Add(50*time.Millisecond), 100*time.Millisecond, 20)

	probe := last0.Add(time.Second)
	if got := hungRanks(d, probe); !slices.Equal(got, []int{1, 2, 0}) {
		t.Fatalf("hung = %v, want victims 1 and 2, then mid-gap hanger 0", got)
	}
}

func TestDetectorWorldAliveWhileAnyRankBeacons(t *testing.T) {
	// Rank 1's beacons stop arriving (dropped, or the rank is slow to
	// report) while ranks 0 and 2 keep beaconing: in a lock-step world the
	// peers' progress proves it alive, so the world is never hung.
	d := NewDetector(time.Millisecond)
	t0 := time.Unix(1000, 0)
	gap := 5 * time.Millisecond
	now := t0
	for i := 0; i < 200; i++ {
		for r := 0; r < 3; r++ {
			if r != 1 || i < 5 {
				d.Observe(r, now)
			}
		}
		if got := hung(d, now.Add(windowAt(d, now))); got != nil {
			t.Fatalf("iteration %d: hung %v while ranks 0 and 2 beacon", i, got)
		}
		now = now.Add(gap)
	}
	// Once the whole world falls silent, rank 1 — silent longest — leads.
	last := now.Add(-gap)
	if got := hungRanks(d, last.Add(windowAt(d, last)+time.Nanosecond)); !slices.Equal(got, []int{1, 0, 2}) {
		t.Fatalf("hung = %v, want [1 0 2]", got)
	}
}

// FuzzDetector drives the detector with random worlds — 1 to 6 ranks, each
// on its own jittered cadence with random beacon drops, one rank freezing
// at a random beacon, random Done calls — and checks every verdict against
// the world rule: the window lies in [floor, cap]; the world is hung iff
// no live rank beaconed within the window; a hung world lists exactly its
// live ranks by silence descending, then rank ascending; the window is the
// cap while a live rank has fewer than three gaps of its own; and after
// Reset nothing is hung before the cap.
func FuzzDetector(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(5), uint8(0), uint8(200))
	f.Add(uint64(7), uint8(0), uint8(1), uint8(128), uint8(64))
	f.Add(uint64(42), uint8(5), uint8(40), uint8(250), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, size, hangMs, dropRate, steps uint8) {
		rng := rand.New(rand.NewPCG(seed, uint64(size)<<16|uint64(hangMs)<<8|uint64(dropRate)))
		n := int(size%6) + 1
		hang := time.Duration(hangMs%50+1) * time.Millisecond
		floor, ceil := hang, capFloors*hang
		d := NewDetector(hang)

		t0 := time.Unix(1000, 0)
		last := make([]time.Time, n)
		next := make([]time.Time, n)
		cadence := make([]time.Duration, n)
		drop := make([]float64, n)
		done := make([]bool, n)
		sent := make([]int, n)
		gaps := make([]int, n) // gaps each rank fed the detector
		freezeRank, freezeAt := rng.IntN(n), rng.IntN(int(steps)+1)
		for r := range n {
			d.Observe(r, t0) // the supervisor's bootstrap observation
			last[r] = t0
			cadence[r] = time.Duration(rng.Int64N(int64(10*hang))) + 100*time.Microsecond
			next[r] = t0.Add(cadence[r])
			drop[r] = float64(dropRate) / 255 * rng.Float64()
		}

		check := func(now time.Time) {
			got, w := d.Hung(now)
			if w < floor || w > ceil {
				t.Fatalf("window %v outside [%v, %v]", w, floor, ceil)
			}
			var live []Suspect
			alive, boot := false, false
			for r := range n {
				if done[r] {
					continue
				}
				silent := now.Sub(last[r])
				alive = alive || silent <= w
				boot = boot || gaps[r] < detectorBoot
				live = append(live, Suspect{Rank: r, Silent: silent})
			}
			if boot && w != ceil {
				t.Fatalf("window %v while a live rank has under %d gaps, want the cap %v", w, detectorBoot, ceil)
			}
			if alive {
				if got != nil {
					t.Fatalf("hung %v at %v while a live rank beaconed within %v", got, now.Sub(t0), w)
				}
				return
			}
			slices.SortStableFunc(live, func(a, b Suspect) int { return cmp.Compare(b.Silent, a.Silent) })
			if !slices.Equal(got, live) {
				t.Fatalf("hung = %v, want every live rank by silence: %v", got, live)
			}
		}

		now := t0
		for range int(steps) {
			r := 0
			for q := range n {
				if next[q].Before(next[r]) {
					r = q
				}
			}
			now = next[r]
			gap := time.Duration(float64(cadence[r]) * (0.5 + rng.Float64()))
			if rng.IntN(20) == 0 {
				gap *= 30 // a stall: checkpoint I/O, a rebuild, a loaded host
			}
			next[r] = now.Add(gap)
			sent[r]++
			switch {
			case r == freezeRank && sent[r] > freezeAt:
				next[r] = now.Add(1000 * time.Hour) // frozen: never beacons again
			case rng.Float64() < drop[r]:
				// lost in transit
			case rng.IntN(40) == 0:
				d.Done(r, now)
				last[r], done[r] = now, true
				gaps[r]++
			default:
				d.Observe(r, now)
				last[r] = now
				gaps[r]++
			}
			check(now.Add(time.Duration(rng.Int64N(int64(2 * ceil)))))
		}

		d.Reset()
		for r := range n {
			d.Observe(r, now)
		}
		if w := windowAt(d, now); w != ceil {
			t.Fatalf("window after reset = %v, want the cap %v", w, ceil)
		}
		if got := hung(d, now.Add(ceil)); got != nil {
			t.Fatalf("hung %v within the cap after reset", got)
		}
	})
}
