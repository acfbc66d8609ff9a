package supervisor

import (
	"slices"
	"testing"
	"time"
)

// windowOf reads one rank's current adaptive window through Live.
func windowOf(t *testing.T, d *Detector, rank int, now time.Time) time.Duration {
	t.Helper()
	for _, s := range d.Live(now) {
		if s.Rank == rank {
			return s.Window
		}
	}
	t.Fatalf("rank %d is not live", rank)
	return 0
}

// condemnedRanks lists the ranks Condemned blames at now, in its order.
func condemnedRanks(d *Detector, now time.Time) []int {
	var out []int
	for _, s := range d.Condemned(now) {
		out = append(out, s.Rank)
	}
	return out
}

// crossedOnly fails unless exactly the given rank is silent past its own
// window at now: the scenario a Condemned test is built on.
func crossedOnly(t *testing.T, d *Detector, rank int, now time.Time) {
	t.Helper()
	for _, s := range d.Live(now) {
		if crossed := s.Silent > s.Window; crossed != (s.Rank == rank) {
			t.Fatalf("rank %d silent %v against window %v; scenario broken", s.Rank, s.Silent, s.Window)
		}
	}
}

func TestDetectorBootstrapWindow(t *testing.T) {
	d := NewDetector(10 * time.Millisecond)
	t0 := time.Unix(1000, 0)
	d.Observe(0, t0)

	// With no cadence model the rank gets the full bootstrap window, the cap.
	if w := windowOf(t, d, 0, t0); w != 240*time.Millisecond {
		t.Fatalf("bootstrap window = %v, want 24 floors", w)
	}
	if c := d.Condemned(t0.Add(230 * time.Millisecond)); len(c) != 0 {
		t.Fatalf("condemned inside the bootstrap window: %v", c)
	}
	// Past it the rank is condemned; a rank never observed at all never is.
	if got := condemnedRanks(d, t0.Add(time.Hour)); !slices.Equal(got, []int{0}) {
		t.Fatalf("condemned past the bootstrap window = %v, want [0]", got)
	}
}

func TestDetectorAdaptiveWindow(t *testing.T) {
	d := NewDetector(20 * time.Millisecond)
	t0 := time.Unix(1000, 0)
	// A steady 100ms beacon cadence.
	now := t0
	for i := 0; i < 20; i++ {
		d.Observe(0, now)
		now = now.Add(100 * time.Millisecond)
	}
	last := now.Add(-100 * time.Millisecond) // time of the final Observe
	// Zero-variance cadence: σ floors at mean/4, so w = mean + 8·mean/4 = 3·mean.
	if w, want := windowOf(t, d, 0, last), 300*time.Millisecond; w != want {
		t.Fatalf("adaptive window = %v, want %v", w, want)
	}
	if c := d.Condemned(last.Add(299 * time.Millisecond)); len(c) != 0 {
		t.Fatalf("condemned at 299ms silence: %v", c)
	}
	if got := condemnedRanks(d, last.Add(301*time.Millisecond)); !slices.Equal(got, []int{0}) {
		t.Fatalf("condemned at 301ms silence = %v, want [0]", got)
	}

	// The window clamps to the floor from below...
	fast := NewDetector(time.Second)
	now = t0
	for i := 0; i < 20; i++ {
		fast.Observe(0, now)
		now = now.Add(time.Millisecond)
	}
	if w := windowOf(t, fast, 0, now); w != time.Second {
		t.Fatalf("fast cadence window = %v, want the floor", w)
	}
	// ...and to 24 floors from above.
	slow := NewDetector(10 * time.Millisecond)
	now = t0
	for i := 0; i < 20; i++ {
		slow.Observe(0, now)
		now = now.Add(10 * time.Second)
	}
	if w := windowOf(t, slow, 0, now); w != 240*time.Millisecond {
		t.Fatalf("slow cadence window = %v, want the cap", w)
	}
}

func TestDetectorDoneExemption(t *testing.T) {
	d := NewDetector(time.Millisecond)
	t0 := time.Unix(1000, 0)
	d.Observe(0, t0)
	d.Done(1, t0)

	late := t0.Add(time.Hour)
	if got := condemnedRanks(d, late); !slices.Equal(got, []int{0}) {
		t.Fatalf("condemned = %v, want only rank 0", got)
	}
	for _, s := range d.Live(late) {
		if s.Rank == 1 {
			t.Fatalf("done rank still live: %v", s)
		}
	}
}

func TestDetectorSuspectsSortedAndReset(t *testing.T) {
	d := NewDetector(time.Millisecond)
	t0 := time.Unix(1000, 0)
	for _, r := range []int{5, 1, 3} {
		d.Observe(r, t0)
	}
	sus := d.Condemned(t0.Add(time.Minute))
	if len(sus) != 3 {
		t.Fatalf("condemned = %v, want 3", sus)
	}
	for i, want := range []int{1, 3, 5} {
		if sus[i].Rank != want {
			t.Fatalf("condemned order = %v, want ranks 1,3,5", sus)
		}
		if sus[i].Silent < time.Minute || sus[i].Window <= 0 {
			t.Fatalf("suspect diagnostics incomplete: %+v", sus[i])
		}
	}

	d.Reset()
	if sus := d.Condemned(t0.Add(time.Hour)); len(sus) != 0 {
		t.Fatalf("condemned after reset = %v, want none", sus)
	}
}

func TestDetectorCondemnedIncludesEarlierSilentHanger(t *testing.T) {
	// Regression for the post-mortem mis-attribution flake: rank 0 hangs
	// while still in bootstrap (the 6s cap), so its blocked victim — rank 1,
	// with a tight learned cadence — crosses its window first. Condemned must
	// lead with the earlier-silent hanger.
	d := NewDetector(250 * time.Millisecond)
	t0 := time.Unix(1000, 0)

	// Rank 0: two beacons only — no cadence model, bootstrap window 6s.
	d.Observe(0, t0)
	d.Observe(0, t0.Add(100*time.Millisecond)) // last heard 100ms in

	// Rank 1: steady 100ms cadence → adaptive window 300ms (3·mean).
	now := t0
	for i := 0; i < 20; i++ {
		d.Observe(1, now)
		now = now.Add(100 * time.Millisecond)
	}
	last1 := now.Add(-100 * time.Millisecond) // t0 + 1.9s

	// Rank 2: same cadence but still beaconing — must never be condemned.
	now = t0
	for i := 0; i < 30; i++ {
		d.Observe(2, now)
		now = now.Add(100 * time.Millisecond)
	}
	last2 := now.Add(-100 * time.Millisecond) // t0 + 2.9s

	// No rank past its window yet: Condemned stays empty even though rank 0
	// has been silent for ages relative to the others.
	if c := d.Condemned(last1.Add(100 * time.Millisecond)); len(c) != 0 {
		t.Fatalf("condemned before any rank crossed its window = %v, want none", c)
	}

	probe := t0.Add(3 * time.Second)
	// At probe only the victim (silent 1.1s > 300ms) has crossed its window;
	// the hanger (silent 2.9s < 6s) has not.
	crossedOnly(t, d, 1, probe)

	con := d.Condemned(probe)
	if len(con) != 2 || con[0].Rank != 0 || con[1].Rank != 1 {
		t.Fatalf("condemned = %v, want hanger rank 0 first then victim rank 1", con)
	}
	if con[0].Silent <= con[1].Silent {
		t.Fatalf("hanger silence %v not longer than victim's %v", con[0].Silent, con[1].Silent)
	}
	for _, s := range con {
		if s.Rank == 2 {
			t.Fatalf("live, recently-beaconing rank 2 condemned: %v (silent since %v)", con, probe.Sub(last2))
		}
	}

	// A done rank silent since forever is still exempt.
	d.Done(3, t0)
	for _, s := range d.Condemned(probe) {
		if s.Rank == 3 {
			t.Fatalf("done rank condemned: %v", d.Condemned(probe))
		}
	}
}

func TestDetectorCondemnedIncludesMidGapHanger(t *testing.T) {
	// Regression for the residual mis-attribution case: the hanger beacons
	// right before freezing while its victim sits mid-gap, so the victim's
	// silence is a hair *longer* — a silent >= maxSilent cut would omit the
	// actual death site. The hanger's irregular cadence gives it a wide
	// adaptive window, so it has not crossed it when the victim does.
	d := NewDetector(250 * time.Millisecond)
	t0 := time.Unix(1000, 0)

	// Rank 0 (hanger): alternating 100ms / 1s gaps — mean 550ms, high
	// variance, adaptive window ~4s. Last beacon at freeze onset.
	now := t0
	for i := 0; i < 20; i++ {
		d.Observe(0, now)
		if i%2 == 0 {
			now = now.Add(100 * time.Millisecond)
		} else {
			now = now.Add(time.Second)
		}
	}
	last0 := now.Add(-time.Second) // the hanger's final beacon

	// Rank 1 (victim): steady 100ms cadence → window 300ms. Its last beacon
	// lands 50ms before the hanger's — it was mid-gap, blocked in the
	// collective the hanger never reached.
	now = last0.Add(-1950 * time.Millisecond)
	for i := 0; i < 20; i++ {
		d.Observe(1, now)
		now = now.Add(100 * time.Millisecond)
	}
	last1 := now.Add(-100 * time.Millisecond)
	if got := last0.Sub(last1); got != 50*time.Millisecond {
		t.Fatalf("scenario arithmetic: hanger last %v after victim last, want 50ms", got)
	}

	probe := last0.Add(1200 * time.Millisecond)

	// Rank 2 (healthy): steady 100ms cadence right up to the probe.
	now = t0
	for !now.After(probe.Add(-50 * time.Millisecond)) {
		d.Observe(2, now)
		now = now.Add(100 * time.Millisecond)
	}

	// Only the victim has crossed its own window; the hanger is the *less*
	// silent of the two dead ranks.
	crossedOnly(t, d, 1, probe)

	con := d.Condemned(probe)
	if len(con) != 2 || con[0].Rank != 1 || con[1].Rank != 0 {
		t.Fatalf("condemned = %v, want victim rank 1 then mid-gap hanger rank 0", con)
	}
	for _, s := range con {
		if s.Rank == 2 {
			t.Fatalf("healthy beaconing rank 2 condemned: %v", con)
		}
	}
}

func TestDetectorWindowReadaptsAfterRegimeChange(t *testing.T) {
	// A cadence that abruptly becomes 10x cheaper (coarsened graph) must
	// shrink the window once the 64-gap sliding window rolls over.
	d := NewDetector(200 * time.Millisecond)
	now := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		d.Observe(0, now)
		now = now.Add(time.Second)
	}
	wide := windowOf(t, d, 0, now)
	for i := 0; i < 70; i++ {
		d.Observe(0, now)
		now = now.Add(100 * time.Millisecond)
	}
	narrow := windowOf(t, d, 0, now)
	if narrow >= wide {
		t.Fatalf("window did not re-adapt: %v -> %v", wide, narrow)
	}
}
