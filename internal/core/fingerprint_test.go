package core

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
)

// TestFingerprintStability pins known inputs to known digests. These values
// are persisted in checkpoint manifests, service result caches and job
// records, so they must stay identical across releases: a failure here means
// every stored artifact would silently stop matching. If a fingerprint
// change is truly intended, bump the relevant on-disk schema version and
// update the pins in the same commit.
func TestFingerprintStability(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want Fingerprint
	}{
		{"baseline defaults", Baseline(), "1adf270daedaccd1"},
		{"etc 0.25", ETC(0.25), "db98d8c5cdbe2c23"},
		{"custom trajectory knobs", Config{
			Tau: 1e-4, TauSchedule: []float64{1e-3, 1e-4}, Alpha: 0.5,
			Seed: 42, MaxIterations: 7,
		}, "3ef60d9f7d1321c7"},
	}
	for _, c := range cases {
		if got := c.cfg.Fingerprint(); got != c.want {
			t.Errorf("%s: Fingerprint = %s, want %s (cross-version stability broken)", c.name, got, c.want)
		}
		if got := c.cfg.Hash(); got != string(c.want) {
			t.Errorf("%s: Hash = %s, want the Fingerprint string %s", c.name, got, c.want)
		}
	}
}

// TestFingerprintRefusesSmallestIDTrajectories: up to cd63276 equal-ΔQ ties
// broke towards the smallest community ID, and the fingerprint ended in
// "coloring=<bool>" where it now names the tie rule. A manifest or cache key
// written then describes a trajectory this tree does not produce, so none of
// that format's digests may equal today's for the same configuration — Resume
// then refuses the checkpoint (TestResumeRejectsConfigMismatch) and the service
// cache misses. The literals are what cd63276 computed.
func TestFingerprintRefusesSmallestIDTrajectories(t *testing.T) {
	for _, c := range []struct {
		name   string
		cfg    Config
		parent Fingerprint
	}{
		{"baseline defaults", Baseline(), "c9c770952769d5e3"},
		{"etc 0.25", ETC(0.25), "f54eedebcbd45f1d"},
	} {
		// The literal is the old derivation's digest, not a typo of it.
		c.cfg.fill()
		h := fnv.New64a()
		fmt.Fprintf(h, "tau=%v;sched=%v;alpha=%v;etc=%v;etcexit=%v;maxphases=%d;maxiter=%d;seed=%d;coloring=%v",
			c.cfg.Tau, c.cfg.TauSchedule, c.cfg.Alpha, c.cfg.ETC, DefaultETCExit, c.cfg.MaxPhases, c.cfg.MaxIterations, c.cfg.Seed, false)
		if old := Fingerprint(fmt.Sprintf("%016x", h.Sum64())); old != c.parent {
			t.Fatalf("%s: the smallest-ID format hashes to %s, recorded %s", c.name, old, c.parent)
		}
		if got := c.cfg.Fingerprint(); got == c.parent {
			t.Errorf("%s: Fingerprint = %s, the digest cd63276 gave its smallest-ID trajectory", c.name, got)
		}
	}
}

// TestFingerprintRefusesUndampedTrajectories: up to ea93e17 a vertex was free
// to go back to the community it had just left, and the fingerprint ended at
// "tie=mix64". A manifest or cache key written then describes a trajectory with
// LFR's period-2 tail in it, so none of that format's digests may equal today's
// for the same configuration — Resume refuses the checkpoint
// (TestResumeRejectsConfigMismatch) and the dlouvaind cache, keyed by this
// digest, misses (service.TestCacheKeyedByConfigFingerprint). The literals are
// what ea93e17 computed, and pinned.
func TestFingerprintRefusesUndampedTrajectories(t *testing.T) {
	for _, c := range []struct {
		name   string
		cfg    Config
		parent Fingerprint
	}{
		{"baseline defaults", Baseline(), "3fe5d2c9646e1c13"},
		{"etc 0.25", ETC(0.25), "6db74814c6902ce5"},
	} {
		c.cfg.fill()
		h := fnv.New64a()
		fmt.Fprintf(h, "tau=%v;sched=%v;alpha=%v;etc=%v;etcexit=%v;maxphases=%d;maxiter=%d;seed=%d;tie=mix64",
			c.cfg.Tau, c.cfg.TauSchedule, c.cfg.Alpha, c.cfg.ETC, DefaultETCExit, c.cfg.MaxPhases, c.cfg.MaxIterations, c.cfg.Seed)
		if old := Fingerprint(fmt.Sprintf("%016x", h.Sum64())); old != c.parent {
			t.Fatalf("%s: the undamped format hashes to %s, recorded %s", c.name, old, c.parent)
		}
		if got := c.cfg.Fingerprint(); got == c.parent {
			t.Errorf("%s: Fingerprint = %s, the digest ea93e17 gave its undamped trajectory", c.name, got)
		}
	}
}

// TestFingerprintIgnoresPerformanceKnobs verifies the documented exclusion
// list: plumbing that never changes the trajectory must not re-key caches or
// invalidate checkpoints.
func TestFingerprintIgnoresPerformanceKnobs(t *testing.T) {
	base := ETC(0.25)
	perturbed := base
	perturbed.Threads = 8
	perturbed.GatherOutput = true
	perturbed.CheckpointDir = "somewhere"
	perturbed.CheckpointEvery = 3
	perturbed.CheckpointKeep = 7
	if base.Fingerprint() != perturbed.Fingerprint() {
		t.Fatal("performance-only knobs changed the config fingerprint")
	}
	traj := base
	traj.Seed = 99
	if base.Fingerprint() == traj.Fingerprint() {
		t.Fatal("a trajectory knob (Seed) did not change the config fingerprint")
	}
}

// TestConfigFieldsPinned is the ratchet on Config: the exported fields are
// pinned by name, and a field changes the fingerprint exactly when it is not
// on the result-neutral list. A new trajectory-determining field that
// Fingerprint forgets, a new switch between equivalent paths, and a retired
// knob creeping back all fail here.
func TestConfigFieldsPinned(t *testing.T) {
	fields := []string{
		"Tau", "TauSchedule", "Alpha", "ETC", "Threads", "MaxPhases", "MaxIterations", "Seed",
		"GatherOutput", "CheckpointDir", "CheckpointEvery", "CheckpointKeep",
		"Progress", "Tracer", "Interrupted",
	}
	neutral := map[string]bool{
		"Threads": true, "GatherOutput": true, "CheckpointDir": true, "CheckpointEvery": true,
		"CheckpointKeep": true, "Progress": true, "Tracer": true, "Interrupted": true,
	}
	typ := reflect.TypeOf(Config{})
	var exported, unexported []string
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			exported = append(exported, f.Name)
		} else {
			unexported = append(unexported, f.Name)
		}
	}
	if !slices.Equal(exported, fields) {
		t.Fatalf("Config's exported fields are\n%v, pinned\n%v", exported, fields)
	}
	if !slices.Equal(unexported, []string{"oracle"}) {
		t.Fatalf("Config's unexported fields are %v, want only the test oracle", unexported)
	}

	base := Config{}.Fingerprint()
	for _, name := range fields {
		var cfg Config
		f := reflect.ValueOf(&cfg).Elem().FieldByName(name)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(3)
		case reflect.Uint64:
			f.SetUint(7)
		case reflect.Float64:
			f.SetFloat(0.5)
		case reflect.String:
			f.SetString("x")
		case reflect.Slice:
			f.Set(reflect.ValueOf([]float64{1e-3}))
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Func:
			f.Set(reflect.MakeFunc(f.Type(), func([]reflect.Value) []reflect.Value {
				out := make([]reflect.Value, f.Type().NumOut())
				for i := range out {
					out[i] = reflect.Zero(f.Type().Out(i))
				}
				return out
			}))
		default:
			t.Fatalf("%s: no non-zero value for kind %s; extend the test", name, f.Kind())
		}
		if changed := cfg.Fingerprint() != base; changed == neutral[name] {
			t.Errorf("%s: changes the fingerprint = %v, listed result-neutral = %v", name, changed, neutral[name])
		}
	}
}

// TestGraphFingerprintStability pins the digest of a deterministic generator
// output, and checks sensitivity to content changes.
func TestGraphFingerprintStability(t *testing.T) {
	dir := t.TempDir()
	n, edges := gen.ErdosRenyi(40, 120, 9)
	p := filepath.Join(dir, "g.bin")
	if err := gio.WriteBinary(p, n, edges); err != nil {
		t.Fatal(err)
	}
	fp, err := GraphFingerprint(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := Fingerprint("861f1fa7eb8e9422"); fp != want {
		t.Fatalf("GraphFingerprint = %s, want %s (cross-version stability broken)", fp, want)
	}
	// A file several times the read buffer, whose length is no multiple of it:
	// the digest is over every byte, whatever the chunking.
	n3, edges3 := gen.ErdosRenyi(3000, 7001, 5)
	p3 := filepath.Join(dir, "g3.bin")
	if err := gio.WriteBinary(p3, n3, edges3); err != nil {
		t.Fatal(err)
	}
	fp3, err := GraphFingerprint(p3)
	if err != nil {
		t.Fatal(err)
	}
	if want := Fingerprint("11c0c1608b5de714"); fp3 != want {
		t.Fatalf("GraphFingerprint of a %d-edge file = %s, want %s (cross-version stability broken)", len(edges3), fp3, want)
	}

	// Same edges, one weight changed: a different input.
	edges2 := append([]graph.RawEdge(nil), edges...)
	edges2[0].W += 1
	p2 := filepath.Join(dir, "g2.bin")
	if err := gio.WriteBinary(p2, n, edges2); err != nil {
		t.Fatal(err)
	}
	fp2, err := GraphFingerprint(p2)
	if err != nil {
		t.Fatal(err)
	}
	if fp2 == fp {
		t.Fatal("weight change did not change the graph fingerprint")
	}

	if _, err := GraphFingerprint(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestGraphFingerprintMatchesBytes confirms the digest is over raw file
// bytes: an identical copy fingerprints identically regardless of path.
func TestGraphFingerprintMatchesBytes(t *testing.T) {
	dir := t.TempDir()
	n, edges := gen.ErdosRenyi(20, 40, 3)
	a := filepath.Join(dir, "a.bin")
	if err := gio.WriteBinary(a, n, edges); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	b := filepath.Join(dir, "b.bin")
	if err := os.WriteFile(b, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fa, err := GraphFingerprint(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := GraphFingerprint(b)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Fatalf("identical bytes fingerprint differently: %s vs %s", fa, fb)
	}
}
