package supervisor

import (
	"testing"
	"time"
)

func TestBackoffGrowthAndJitterBounds(t *testing.T) {
	p := Policy{BaseBackoff: 100 * time.Millisecond, Seed: 7}
	prevCeil := time.Duration(0)
	for restart := 1; restart <= 12; restart++ {
		d := p.Backoff(restart)
		// Un-jittered ceiling for this restart: base·2^(restart-1), capped.
		ceil := 100 * time.Millisecond
		for i := 1; i < restart && ceil < maxBackoff; i++ {
			ceil *= 2
		}
		ceil = min(ceil, maxBackoff)
		if d < ceil/2 || d >= ceil {
			t.Fatalf("restart %d: backoff %v outside [%v, %v)", restart, d, ceil/2, ceil)
		}
		if ceil < prevCeil {
			t.Fatalf("ceiling shrank: %v -> %v", prevCeil, ceil)
		}
		prevCeil = ceil
	}
}

func TestBackoffDeterministic(t *testing.T) {
	a := Policy{BaseBackoff: 50 * time.Millisecond, Seed: 3}
	b := Policy{BaseBackoff: 50 * time.Millisecond, Seed: 3}
	c := Policy{BaseBackoff: 50 * time.Millisecond, Seed: 4}
	differ := false
	for r := 1; r <= 5; r++ {
		if a.Backoff(r) != b.Backoff(r) {
			t.Fatalf("restart %d: same seed, different backoff", r)
		}
		if a.Backoff(r) != c.Backoff(r) {
			differ = true
		}
	}
	if !differ {
		t.Fatal("different seeds never produced different jitter")
	}
}

func TestBackoffClampsBadInput(t *testing.T) {
	var p Policy // all defaults
	if d := p.Backoff(0); d < 250*time.Millisecond || d >= 500*time.Millisecond {
		t.Fatalf("restart 0 backoff %v outside default first-restart range", d)
	}
	if d := p.Backoff(100); d >= maxBackoff {
		t.Fatalf("huge restart count escaped the backoff cap: %v", d)
	}
}

func TestPolicyFillDefaults(t *testing.T) {
	var p Policy
	p.fill()
	if p.MaxRestarts != 5 || p.BaseBackoff != 500*time.Millisecond || p.MinRanks != 1 || p.Seed != 1 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
	// A BaseBackoff above the 30s cap lifts the cap to itself.
	q := Policy{BaseBackoff: time.Minute}
	for r := 1; r <= 3; r++ {
		if d := q.Backoff(r); d < 30*time.Second || d >= time.Minute {
			t.Fatalf("restart %d backoff %v outside [30s, 1m): cap not lifted to BaseBackoff", r, d)
		}
	}
}
