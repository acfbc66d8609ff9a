package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleSections() []Section {
	return []Section{
		{Name: "meta", Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Name: "csr", Data: []byte("edges-and-index")},
		{Name: "empty", Data: nil},
		{Name: "origcomm", Data: make([]byte, 1024)},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	want := sampleSections()
	if err := WriteSnapshot(path, want); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	got := snap.Sections()
	if len(got) != len(want) {
		t.Fatalf("got %d sections, want %d", len(got), len(want))
	}
	for i, s := range want {
		if got[i].Name != s.Name || string(got[i].Data) != string(s.Data) {
			t.Fatalf("section %d differs: %q vs %q", i, got[i].Name, s.Name)
		}
		data, err := snap.Section(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(s.Data) {
			t.Fatalf("Section(%q) payload differs", s.Name)
		}
	}
	_, err = snap.Section("nope")
	var se *SectionError
	if !errors.As(err, &se) || se.Path != path || se.Section != "nope" || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("missing section error = %v, want a *SectionError naming file and section", err)
	}
}

// TestSnapshotEveryBitFlipDetected flips each byte of an encoded snapshot in
// turn; every mutant must be rejected (CRC, structural, or header check) —
// a corrupt snapshot must never load.
func TestSnapshotEveryBitFlipDetected(t *testing.T) {
	data, err := EncodeSnapshot(sampleSections())
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[i] ^= 0x40
		if _, err := DecodeSnapshot("mutant", mut); err == nil {
			t.Fatalf("byte flip at offset %d was not detected", i)
		}
	}
}

func TestSnapshotTruncationDetected(t *testing.T) {
	data, err := EncodeSnapshot(sampleSections())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := DecodeSnapshot("trunc", data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes was not detected", cut)
		}
	}
}

func TestSnapshotErrorsCarryContext(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctx.ckpt")
	if err := WriteSnapshot(path, sampleSections()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the last section's payload: the error must name
	// both the file and the section.
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReadSnapshot(path)
	if err == nil {
		t.Fatal("corrupt payload loaded")
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), `"origcomm"`) {
		t.Fatalf("error lacks file/section context: %v", err)
	}
}

// TestEncodeSnapshotOneExactAllocation: the container is built in one
// allocation of exactly its size — no growth, no copy of a body.
func TestEncodeSnapshotOneExactAllocation(t *testing.T) {
	secs := sampleSections()
	data, err := EncodeSnapshot(secs)
	if err != nil {
		t.Fatal(err)
	}
	if cap(data) != len(data) {
		t.Fatalf("container is %d bytes in a %d-byte allocation", len(data), cap(data))
	}
	if allocs := testing.AllocsPerRun(10, func() { EncodeSnapshot(secs) }); allocs != 1 {
		t.Fatalf("EncodeSnapshot allocates %v times, want 1", allocs)
	}
}

func TestSnapshotBadNameLength(t *testing.T) {
	long := strings.Repeat("x", MaxNameLen+1)
	if _, err := EncodeSnapshot([]Section{{Name: long}}); err == nil {
		t.Fatal("overlong section name accepted")
	}
	if _, err := EncodeSnapshot([]Section{{Name: ""}}); err == nil {
		t.Fatal("empty section name accepted")
	}
}

func TestWriteSnapshotLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ckpt")
	if err := WriteSnapshot(path, sampleSections()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temporary file left behind: %v", err)
	}
}

func validManifest() *Manifest {
	return &Manifest{
		Version:    ManifestVersion,
		WorldSize:  3,
		ConfigHash: "cafebabe",
		Phase:      2,
		OrigN:      100,
		CoarseN:    17,
		Files: []string{
			RankFileName(2, 0), RankFileName(2, 1), RankFileName(2, 2),
		},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := validManifest()
	if err := WriteManifest(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Phase != want.Phase || got.WorldSize != want.WorldSize ||
		got.ConfigHash != want.ConfigHash || got.OrigN != want.OrigN ||
		got.CoarseN != want.CoarseN || len(got.Files) != len(want.Files) {
		t.Fatalf("manifest round trip differs: %+v vs %+v", got, want)
	}
}

func TestManifestMissing(t *testing.T) {
	_, err := ReadManifest(t.TempDir())
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestManifestCorruptRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("truncated manifest: err = %v", err)
	}
}

func TestManifestValidation(t *testing.T) {
	dir := t.TempDir()
	bad := validManifest()
	bad.Files = bad.Files[:1]
	if err := WriteManifest(dir, bad); err == nil {
		t.Fatal("file-count mismatch accepted")
	}
	bad = validManifest()
	bad.Files[0] = "../escape.ckpt"
	if err := WriteManifest(dir, bad); err == nil {
		t.Fatal("path-escaping file name accepted")
	}
	bad = validManifest()
	bad.Version = 99
	if err := WriteManifest(dir, bad); err == nil {
		t.Fatal("wrong version accepted")
	}
}

// TestInterruptedCommitKeepsOldManifest simulates a crash mid-commit: a
// half-written temporary next to a valid manifest must not shadow it.
func TestInterruptedCommitKeepsOldManifest(t *testing.T) {
	dir := t.TempDir()
	old := validManifest()
	if err := WriteManifest(dir, old); err != nil {
		t.Fatal(err)
	}
	// Crash artifact: partial bytes in the temporary the next commit would
	// have renamed into place.
	tmp := filepath.Join(dir, ManifestName+".tmp")
	if err := os.WriteFile(tmp, []byte(`{"version":1,"phase":9`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Phase != old.Phase {
		t.Fatalf("interrupted commit shadowed the valid manifest: phase %d, want %d", got.Phase, old.Phase)
	}
}

func TestPruneRank(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mk(RankFileName(1, 0))
	mk(RankFileName(2, 0))
	mk(RankFileName(1, 0) + ".tmp")
	mk(RankFileName(2, 0) + ".tmp")
	mk(RankFileName(3, 0) + ".tmp") // newer than the commit: an earlier run's leftover
	mk(RankFileName(2, 1))          // other rank: untouched
	PruneRank(dir, 0, 2, 1)
	for name, want := range map[string]bool{
		RankFileName(1, 0):          false,
		RankFileName(2, 0):          true,
		RankFileName(1, 0) + ".tmp": false,
		RankFileName(2, 0) + ".tmp": false,
		RankFileName(3, 0) + ".tmp": true,
		RankFileName(2, 1):          true,
	} {
		_, err := os.Stat(filepath.Join(dir, name))
		if got := err == nil; got != want {
			t.Fatalf("%s: exists=%v, want %v", name, got, want)
		}
	}
}

// TestPruneRankRetention covers the keep-K window: the K most recent phases
// survive, everything older goes, and the manifest-referenced phase is
// retained even when it is not among the K newest.
func TestPruneRankRetention(t *testing.T) {
	mkAll := func(t *testing.T, dir string, phases ...int) {
		t.Helper()
		for _, ph := range phases {
			if err := os.WriteFile(filepath.Join(dir, RankFileName(ph, 0)), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(t *testing.T, dir string, want map[int]bool) {
		t.Helper()
		for ph, keep := range want {
			_, err := os.Stat(filepath.Join(dir, RankFileName(ph, 0)))
			if got := err == nil; got != keep {
				t.Fatalf("phase %d: exists=%v, want %v", ph, got, keep)
			}
		}
	}

	t.Run("keep2", func(t *testing.T) {
		dir := t.TempDir()
		mkAll(t, dir, 1, 2, 3, 4)
		PruneRank(dir, 0, 4, 2)
		check(t, dir, map[int]bool{1: false, 2: false, 3: true, 4: true})
	})
	t.Run("manifest phase outside window", func(t *testing.T) {
		// A stale manifest phase (e.g. the newest snapshots landed but the
		// commit died before the rename) must survive any quota, and so must
		// every newer phase: in a reused directory it is an earlier run's.
		// Only what is older than the commit and outside the quota goes.
		dir := t.TempDir()
		mkAll(t, dir, 1, 2, 5, 6, 7)
		PruneRank(dir, 0, 2, 2)
		check(t, dir, map[int]bool{1: false, 2: true, 5: true, 6: true, 7: true})
	})
	t.Run("keep below one clamps", func(t *testing.T) {
		dir := t.TempDir()
		mkAll(t, dir, 3, 4)
		PruneRank(dir, 0, 4, 0)
		check(t, dir, map[int]bool{3: false, 4: true})
	})
	t.Run("fewer phases than quota", func(t *testing.T) {
		dir := t.TempDir()
		mkAll(t, dir, 7)
		PruneRank(dir, 0, 7, 3)
		check(t, dir, map[int]bool{7: true})
	})
}
