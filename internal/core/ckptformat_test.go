package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"distlouvain/internal/ckpt"
	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
)

// The section fixture: rank 0 of a 2-rank world after one phase, owning
// coarse vertices [0,2) of 4 and original vertices [0,3) of 5.
const (
	fixPath    = "fixture.ckpt"
	fixCoarseN = 4
	fixOrigN   = 5
)

var (
	fixIndex  = []int64{0, 2, 3}
	fixEdges  = []graph.Edge{{To: 1, W: 2}, {To: 2, W: 1}, {To: 3, W: 7}}
	fixGhosts = []int64{2, 3}
	fixLabels = []int64{0, 3, 1}
)

// fixturePayloads encodes the fixture's csr, ghosts and origcomm sections.
func fixturePayloads() (csr, ghosts, labels []byte) {
	return appendCSR(nil, csrGraph(fixIndex, fixEdges)), mpi.AppendDeltaInt64s(nil, fixGhosts), appendLabels(nil, fixLabels)
}

// csrGraph is the slot CSR of the rows index and edges give by global
// target, owned from vertex 0 on: every target past the rows is a ghost.
func csrGraph(index []int64, edges []graph.Edge) *dgraph.DistGraph {
	dg := &dgraph.DistGraph{LocalN: int64(len(index) - 1), Index: index}
	for _, e := range edges {
		if e.To >= dg.LocalN {
			dg.Ghosts = append(dg.Ghosts, e.To)
		}
	}
	slices.Sort(dg.Ghosts)
	dg.Ghosts = slices.Compact(dg.Ghosts)
	for _, e := range edges {
		s := e.To
		if e.To >= dg.LocalN {
			g, _ := dg.GhostSlot(e.To)
			s = dg.LocalN + int64(g)
		}
		dg.Slot, dg.W = append(dg.Slot, int32(s)), append(dg.W, e.W)
	}
	return dg
}

// decodeFixture runs the given payloads, behind the fixture's meta and
// history, through the container and the section decoders.
func decodeFixture(t testing.TB, csr, ghosts, labels []byte) (*rankSnapshot, error) {
	t.Helper()
	meta := ckptMeta{worldSize: 2, completed: 1, origN: fixOrigN, origLocalN: int64(len(fixLabels)),
		coarseN: fixCoarseN, coarseLocalN: int64(len(fixIndex) - 1), m2: 20}
	hist, _ := appendHistory(nil, nil)
	data, err := ckpt.EncodeSnapshot([]ckpt.Section{
		{Name: secMeta, Data: meta.append(nil)},
		{Name: secCSR, Data: csr},
		{Name: secGhosts, Data: ghosts},
		{Name: secOrigComm, Data: labels},
		{Name: secHistory, Data: hist},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ckpt.DecodeSnapshot(fixPath, data)
	if err != nil {
		t.Fatal(err)
	}
	return decodeRankSnapshot(snap, 0, 2, 1, fixOrigN, fixCoarseN)
}

// sameArcs compares arcs, weights by their bits.
func sameArcs(a, b []dgraph.Arc) bool {
	return slices.EqualFunc(a, b, func(x, y dgraph.Arc) bool {
		return x.From == y.From && x.To == y.To && math.Float64bits(x.W) == math.Float64bits(y.W)
	})
}

func TestCheckpointSectionsRoundTrip(t *testing.T) {
	csr, ghosts, labels := fixturePayloads()
	got, err := decodeFixture(t, csr, ghosts, labels)
	if err != nil {
		t.Fatal(err)
	}
	want := []dgraph.Arc{{From: 0, To: 1, W: 2}, {From: 0, To: 2, W: 1}, {From: 1, To: 3, W: 7}}
	if !sameArcs(got.arcs, want) || cap(got.arcs) != len(want) {
		t.Fatalf("arcs %v (cap %d), want %v", got.arcs, cap(got.arcs), want)
	}
	if !slices.Equal(got.orig.vals, fixLabels) || !slices.Equal(got.ghosts, fixGhosts) {
		t.Fatalf("labels %v ghosts %v, want %v %v", got.orig.vals, got.ghosts, fixLabels, fixGhosts)
	}
	// Eight bytes of CSR for three arcs where version 1 spent 72.
	if size, err := csrSize(csrGraph(fixIndex, fixEdges)); len(csr) != 8 || size != len(csr) || err != nil {
		t.Fatalf("csr section is %d bytes (csrSize %d, %v), want 8", len(csr), size, err)
	}
	// The one weight form's ends: 0, which a tiny input weight rounds to, and
	// 2⁵³ travel; 2⁵³ + 1 is refused (TestCheckpointSectionsRejectCorruption),
	// and so is a weight no graph holds.
	for _, w := range []float64{0, 1 << 53, 1<<53 + 2, 0.5} {
		dg := csrGraph([]int64{0, 1}, []graph.Edge{{To: 3, W: w}})
		size, err := csrSize(dg)
		if w > 1<<53 || w != math.Trunc(w) {
			if err == nil {
				t.Fatalf("weight %v: csrSize accepts it", w)
			}
			continue
		}
		data := appendCSR(nil, dg)
		got, derr := decodeCSR(data, 0, 1, 4)
		if err != nil || derr != nil || len(data) != size || !sameArcs(got, []dgraph.Arc{{From: 0, To: 3, W: w}}) {
			t.Fatalf("weight %v: %d bytes (csrSize %d, %v) decode to %v (%v)", w, len(data), size, err, got, derr)
		}
	}
}

// TestCheckpointSectionsRejectCorruption: every kind of damage a section can
// carry past its CRC fails with a *ckpt.SectionError that names the file
// and the section.
func TestCheckpointSectionsRejectCorruption(t *testing.T) {
	csr, ghosts, labels := fixturePayloads()
	with := func(b []byte, extra ...byte) []byte { return append(slices.Clone(b), extra...) }
	for _, c := range []struct {
		name, section       string
		csr, ghosts, labels []byte
		want                string
	}{
		{"truncated row length", secCSR, []byte{0x80, 0x80}, ghosts, labels, "truncated"},
		{"truncated target", secCSR, []byte{1, 0, 0x82, 0x80}, ghosts, labels, "truncated"},
		{"zero gap", secCSR, []byte{1, 0, 0, 1}, ghosts, labels, "zero target gap"},
		{"target past coarseN", secCSR, []byte{1, 0, 5, 1}, ghosts, labels, "past the last vertex"},
		{"rows past the payload", secCSR, []byte{9, 0, 1, 1}, ghosts, labels, "claim 9 arcs"},
		{"weight past 2^53", secCSR, mpi.AppendUvarint([]byte{1, 0, 1}, 1<<53+1), ghosts, labels, "outside [0, 2^53]"},
		{"empty csr", secCSR, nil, ghosts, labels, "empty"},
		{"csr trailing bytes", secCSR, with(csr, 0), ghosts, labels, "trailing"},
		{"label past coarseN", secOrigComm, csr, ghosts, []byte{0, 1, fixCoarseN}, "out of range"},
		{"truncated label", secOrigComm, csr, ghosts, []byte{0, 1, 0x80}, "truncated"},
		{"labels trailing bytes", secOrigComm, csr, ghosts, with(labels, 0), "trailing"},
		{"ghosts descending", secGhosts, csr, mpi.AppendDeltaInt64s(nil, []int64{3, 2}), labels, "ascending"},
		{"ghost past coarseN", secGhosts, csr, mpi.AppendDeltaInt64s(nil, []int64{2, fixCoarseN}), labels, "ascending"},
		{"ghosts trailing bytes", secGhosts, csr, with(ghosts, 0), labels, "trailing"},
	} {
		_, err := decodeFixture(t, c.csr, c.ghosts, c.labels)
		var se *ckpt.SectionError
		if !errors.As(err, &se) {
			t.Fatalf("%s: error %v is not a *ckpt.SectionError", c.name, err)
		}
		if se.Path != fixPath || se.Section != c.section || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: %v; want file %s, section %q, %q", c.name, err, fixPath, c.section, c.want)
		}
	}
}

// FuzzCheckpointSections feeds arbitrary csr, ghosts and origcomm payloads,
// behind a valid meta, to the section decoders. They must never panic; a
// rejection must be a *ckpt.SectionError naming the file and a fuzzed
// section; and what they accept must re-encode to a state that decodes to
// itself.
func FuzzCheckpointSections(f *testing.F) {
	csr, ghosts, labels := fixturePayloads()
	f.Add(csr, ghosts, labels)
	f.Add([]byte{1, 0, 0, 1}, []byte{2, 4, 1}, []byte{0, 1, 4})
	f.Add([]byte{9, 0, 1, 1}, ghosts, []byte{0, 1, 0x80})
	// The one weight form at its ends: 0, which a tiny input weight rounds
	// to, 2⁵³, and 2⁵³ + 1, which is refused.
	for _, w := range []uint64{0, 1 << 53, 1<<53 + 1} {
		f.Add(mpi.AppendUvarint([]byte{1, 1, 1, 1, 2}, w), ghosts, labels)
	}

	f.Fuzz(func(t *testing.T, csr, ghosts, labels []byte) {
		got, err := decodeFixture(t, csr, ghosts, labels)
		if err != nil {
			var se *ckpt.SectionError
			if !errors.As(err, &se) || se.Path != fixPath ||
				(se.Section != secCSR && se.Section != secGhosts && se.Section != secOrigComm) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		index := make([]int64, len(fixIndex))
		edges := make([]graph.Edge, len(got.arcs))
		for i, a := range got.arcs {
			edges[i] = graph.Edge{To: a.To, W: a.W}
			index[a.From+1]++
		}
		for lv := 1; lv < len(index); lv++ {
			index[lv] += index[lv-1]
		}
		dg := csrGraph(index, edges)
		size, err := csrSize(dg)
		re := appendCSR(nil, dg)
		if len(re) != size || err != nil {
			t.Fatalf("csr re-encodes to %d bytes, csrSize said %d (%v)", len(re), size, err)
		}
		arcs, err := decodeCSR(re, 0, int64(len(index)-1), fixCoarseN)
		if err != nil || !sameArcs(arcs, got.arcs) {
			t.Fatalf("csr round trip: %v, %v vs %v", err, arcs, got.arcs)
		}
		vals, err := decodeLabels(appendLabels(nil, got.orig.vals), 0, int64(len(fixLabels)), fixCoarseN)
		if err != nil || !slices.Equal(vals, got.orig.vals) {
			t.Fatalf("labels round trip: %v, %v vs %v", err, vals, got.orig.vals)
		}
		gs, err := decodeGhosts(mpi.AppendDeltaInt64s(nil, got.ghosts), fixCoarseN)
		if err != nil || !slices.Equal(gs, got.ghosts) {
			t.Fatalf("ghosts round trip: %v, %v vs %v", err, gs, got.ghosts)
		}
	})
}

// noTemps fails if a snapshot or manifest temporary is left in dir: every
// write has renamed its temporary into place by the time a run returns.
func noTemps(t *testing.T, dir string) {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil || len(tmps) > 0 {
		t.Fatalf("temporaries left behind in %s: %v %v", dir, tmps, err)
	}
}

// TestCheckpointCommittedOnReturn pins the commit's end state: when Run
// returns, every continuing boundary left one snapshot per rank, the
// manifest names the newest of them, and no temporary is left.
func TestCheckpointCommittedOnReturn(t *testing.T) {
	const p = 3
	n, edges := gen.ErdosRenyi(300, 1500, 5)
	dir := t.TempDir()
	cfg := Baseline()
	cfg.CheckpointDir = dir
	cfg.CheckpointKeep = 64
	res, err := RunOnEdges(p, n, edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := len(res.Phases) - 1
	if boundaries < 2 {
		t.Fatalf("%d phases: fewer than two continuing boundaries", len(res.Phases))
	}
	man, err := ckpt.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Phase != boundaries {
		t.Fatalf("manifest commits phase %d, the newest snapshot is phase %d", man.Phase, boundaries)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "phase-*.ckpt"))
	if len(files) != p*boundaries {
		t.Fatalf("%d snapshot files, want %d", len(files), p*boundaries)
	}
	for _, f := range man.Files {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatal(err)
		}
	}
	noTemps(t, dir)
}

// TestCheckpointCommittedBeforeNextPhase pins the commit point: whenever a
// rank starts phase k ≥ 1, the manifest on disk commits phase k and every
// file it lists exists, so a crash anywhere in phase k resumes from k.
func TestCheckpointCommittedBeforeNextPhase(t *testing.T) {
	n, edges := gen.ErdosRenyi(300, 1500, 5)
	dir := t.TempDir()
	cfg := Baseline()
	cfg.CheckpointDir = dir
	var mu sync.Mutex
	var checked int
	var errs []string
	cfg.Progress = func(ev ProgressEvent) {
		if ev.Kind != ProgressPhaseStart || ev.Phase == 0 {
			return
		}
		problem := ""
		if man, err := ckpt.ReadManifest(dir); err != nil {
			problem = err.Error()
		} else if man.Phase != ev.Phase {
			problem = fmt.Sprintf("manifest commits phase %d", man.Phase)
		} else {
			for _, f := range man.Files {
				if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
					problem = err.Error()
				}
			}
		}
		mu.Lock()
		defer mu.Unlock()
		checked++
		if problem != "" {
			errs = append(errs, fmt.Sprintf("phase %d start: %s", ev.Phase, problem))
		}
	}
	res, err := RunOnEdges(3, n, edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) > 0 {
		t.Fatal(strings.Join(errs, "\n"))
	}
	if want := 3 * (len(res.Phases) - 1); checked != want || checked < 6 {
		t.Fatalf("checked %d phase starts over %d phases on 3 ranks, want %d (at least 6)", checked, len(res.Phases), want)
	}
}

// TestCheckpointReusedDirectory: a run in a directory an earlier run left
// later phases in must not prune the snapshot it is committing — the earlier
// files are newer than its commit, and a quota counting them would evict it.
// Interrupted after phase 0 with one phase kept, it must still resume.
func TestCheckpointReusedDirectory(t *testing.T) {
	n, edges := gen.ErdosRenyi(300, 1500, 5)
	want, err := RunOnEdges(3, n, edges, Baseline())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Baseline()
	cfg.CheckpointDir = dir
	if _, err := RunOnEdges(3, n, edges, cfg); err != nil {
		t.Fatal(err)
	}
	if man, err := ckpt.ReadManifest(dir); err != nil || man.Phase < 3 {
		t.Fatalf("first run left manifest %+v (%v); the test needs phases newer than 1 on disk", man, err)
	}

	var stop atomic.Bool
	cfg.CheckpointKeep = 1
	cfg.Interrupted = stop.Load
	cfg.Progress = func(ev ProgressEvent) {
		if ev.Kind == ProgressIteration && ev.Phase == 0 {
			stop.Store(true)
		}
	}
	if _, err := RunOnEdges(3, n, edges, cfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	sameOutcome(t, "resume in a reused directory", resumeInproc(t, 3, dir, Baseline()), want)
}
