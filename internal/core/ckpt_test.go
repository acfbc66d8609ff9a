package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"distlouvain/internal/ckpt"
	"distlouvain/internal/gen"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
)

// resumeInproc resumes a checkpoint directory on p in-process ranks and
// returns rank 0's Result (GatherOutput forced on).
func resumeInproc(t *testing.T, p int, dir string, cfg Config) *Result {
	t.Helper()
	cfg.GatherOutput = true
	var root *Result
	err := mpi.Run(p, func(c *mpi.Comm) error {
		res, err := Resume(c, dir, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			root = res
		}
		return nil
	})
	if err != nil {
		t.Fatalf("resume (p=%d): %v", p, err)
	}
	return root
}

// sameOutcome asserts a resumed run reproduced the uninterrupted run
// bit-for-bit: identical assignment, identical modularity bits, identical
// community count.
func sameOutcome(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !slices.Equal(got.GlobalComm, want.GlobalComm) {
		t.Fatalf("%s: assignment differs from uninterrupted run", label)
	}
	if math.Float64bits(got.Modularity) != math.Float64bits(want.Modularity) {
		t.Fatalf("%s: modularity %v != uninterrupted %v", label, got.Modularity, want.Modularity)
	}
	if got.Communities != want.Communities {
		t.Fatalf("%s: %d communities, uninterrupted found %d", label, got.Communities, want.Communities)
	}
	if len(got.Phases) != len(want.Phases) {
		t.Fatalf("%s: %d phases, uninterrupted ran %d", label, len(got.Phases), len(want.Phases))
	}
	if got.TotalIterations != want.TotalIterations {
		t.Fatalf("%s: %d iterations, uninterrupted ran %d", label, got.TotalIterations, want.TotalIterations)
	}
}

// runCkptChaosTCP is runChaosTCP's sibling for resumed runs: p TCP ranks
// call Resume on dir, with the doomed rank's transport on the given fault
// plan. Returns per-rank errors, rank 0's Result and the doomed rank's
// total send count (the calibration datum for scheduling a mid-resume kill).
func runCkptChaosTCP(t *testing.T, p, doomed int, plan mpi.FaultPlan, dir string, cfg Config) (errs []error, root *Result, total int64) {
	t.Helper()
	cfg.GatherOutput = true
	return runTCPRanks(t, p, doomed, plan, func(c *mpi.Comm, _ *mpi.FaultTransport) (*Result, error) {
		return Resume(c, dir, cfg)
	})
}

// copyDir clones a flat checkpoint directory, so a chaos pass can consume a
// copy while the original stays replayable.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// killCheckpointingRun runs the full TCP pipeline with checkpointing into
// dir and kills the doomed rank after killAt sends, asserting the expected
// failure shape (ErrKilled on the doomed rank, ErrPeerLost on survivors).
func killCheckpointingRun(t *testing.T, p, doomed int, killAt int64, n int64, edges []graph.RawEdge, cfg Config, dir string) {
	t.Helper()
	cfg.CheckpointDir = dir
	errs, _, _, _ := runChaosTCP(t, p, doomed, mpi.FaultPlan{KillAfterSends: killAt}, n, edges, cfg)
	assertKilledWorld(t, errs, doomed)
}

func assertKilledWorld(t *testing.T, errs []error, doomed int) {
	t.Helper()
	for r, err := range errs {
		if r == doomed {
			if !errors.Is(err, mpi.ErrKilled) {
				t.Fatalf("doomed rank error = %v, want ErrKilled", err)
			}
			continue
		}
		var pl *mpi.ErrPeerLost
		if err == nil || !errors.As(err, &pl) {
			t.Fatalf("survivor rank %d: error = %v, want ErrPeerLost", r, err)
		}
	}
}

// TestCheckpointResumeAfterKill is the acceptance scenario: kill one rank
// mid-phase, resume from the surviving checkpoint, and land on the exact
// final membership and modularity of the uninterrupted run — at the same
// and at different rank counts. The resumed run has phases left, so its
// rebuilds assemble into the graph the resume replayed at the new rank count.
func TestCheckpointResumeAfterKill(t *testing.T) {
	const p, doomed = 3, 1
	n, edges := gen.ErdosRenyi(300, 1500, 5)
	cfg := Baseline()

	want, err := RunOnEdges(p, n, edges, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Phases) < 2 {
		t.Fatal("run converged in one phase; no boundary to checkpoint")
	}

	// Calibration: a healthy checkpointing run measures the doomed rank's
	// send counts (checkpoint fences add sends, so calibration must
	// checkpoint too). The pipeline is deterministic, so the schedule
	// replays identically in the chaos pass.
	calCfg := cfg
	calCfg.CheckpointDir = t.TempDir()
	errs, _, afterBuild, total := runChaosTCP(t, p, doomed, mpi.FaultPlan{}, n, edges, calCfg)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("calibration rank %d: %v", r, err)
		}
	}

	// Chaos pass: kill late in the run, past the last phase boundary.
	dir := t.TempDir()
	killAt := afterBuild + 9*(total-afterBuild)/10
	killCheckpointingRun(t, p, doomed, killAt, n, edges, cfg, dir)
	// Writes are synchronous: no rank returns, killed or not, mid-write.
	noTemps(t, dir)

	man, err := ckpt.ReadManifest(dir)
	if err != nil {
		t.Fatalf("no committed checkpoint survived the kill: %v", err)
	}
	if man.Phase < 1 || man.Phase >= len(want.Phases) {
		t.Fatalf("manifest phase = %d, want 1 … %d", man.Phase, len(want.Phases)-1)
	}

	// Elastic resume: same world, shrunk world, grown world — all must
	// reproduce the uninterrupted result bit-for-bit.
	for _, np := range []int{3, 2, 5} {
		sameOutcome(t, "resume after kill p="+string(rune('0'+np)), resumeInproc(t, np, dir, cfg), want)
	}
}

// TestCheckpointRepeatedFailureResume kills the initial run, then kills the
// resumed run too, then resumes once more: the twice-interrupted run must
// still converge to the uninterrupted result. Run under -race in make
// test-race (this package is covered).
func TestCheckpointRepeatedFailureResume(t *testing.T) {
	const p, doomed = 3, 1
	n, edges := gen.ErdosRenyi(300, 1500, 5)
	cfg := Baseline()

	want, err := RunOnEdges(p, n, edges, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Calibrate the initial run's sends, then kill it mid-run (dirA holds
	// the surviving checkpoint).
	calCfg := cfg
	calCfg.CheckpointDir = t.TempDir()
	errs, _, afterBuild, total := runChaosTCP(t, p, doomed, mpi.FaultPlan{}, n, edges, calCfg)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("run calibration rank %d: %v", r, err)
		}
	}
	dirA := t.TempDir()
	killCheckpointingRun(t, p, doomed, afterBuild+4*(total-afterBuild)/5, n, edges, cfg, dirA)
	if _, err := ckpt.ReadManifest(dirA); err != nil {
		t.Fatalf("no checkpoint after first kill: %v", err)
	}

	// Calibrate a full checkpointing resume on a copy of dirA (the resume
	// advances its directory, so each pass needs a fresh copy).
	resumeCfg := cfg
	resumeCfg.CheckpointDir = copyDir(t, dirA)
	rerrs, rres, rtotal := runCkptChaosTCP(t, p, doomed, mpi.FaultPlan{}, resumeCfg.CheckpointDir, resumeCfg)
	for r, err := range rerrs {
		if err != nil {
			t.Fatalf("resume calibration rank %d: %v", r, err)
		}
	}
	sameOutcome(t, "uninterrupted resume", rres, want)
	if rtotal < 2 {
		t.Fatalf("resume made only %d sends; cannot schedule a mid-resume kill", rtotal)
	}

	// Second failure: kill the resumed run halfway through.
	dirC := copyDir(t, dirA)
	resumeCfg.CheckpointDir = dirC
	rerrs, _, _ = runCkptChaosTCP(t, p, doomed, mpi.FaultPlan{KillAfterSends: rtotal / 2}, dirC, resumeCfg)
	assertKilledWorld(t, rerrs, doomed)

	// Final resume — after two failures, at the original and a shrunk
	// world — still lands exactly on the uninterrupted result.
	sameOutcome(t, "resume after two kills p=3", resumeInproc(t, 3, dirC, cfg), want)
	sameOutcome(t, "resume after two kills p=2", resumeInproc(t, 2, dirC, cfg), want)
}

// makeCheckpoint produces a committed 3-rank checkpoint directory.
func makeCheckpoint(t *testing.T, n int64, edges []graph.RawEdge, cfg Config) string {
	t.Helper()
	dir := t.TempDir()
	cfg.CheckpointDir = dir
	if _, err := RunOnEdges(3, n, edges, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.ReadManifest(dir); err != nil {
		t.Fatalf("no manifest: %v", err)
	}
	return dir
}

func TestResumeRejectsMissingCheckpoint(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		_, err := Resume(c, t.TempDir(), Baseline())
		return err
	})
	if !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("error = %v, want ErrNoCheckpoint", err)
	}
}

func TestResumeRejectsConfigMismatch(t *testing.T) {
	n, edges := gen.ErdosRenyi(300, 1500, 5)
	dir := makeCheckpoint(t, n, edges, Baseline())
	other := Baseline()
	other.Seed = 42 // different trajectory
	err := mpi.Run(3, func(c *mpi.Comm) error {
		_, err := Resume(c, dir, other)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "config fingerprint") {
		t.Fatalf("error = %v, want config fingerprint mismatch", err)
	}

	// A checkpoint written by cd63276 — equal-ΔQ ties towards the smallest
	// community ID — carries that tree's digest of the same configuration
	// (TestFingerprintRefusesSmallestIDTrajectories) and is refused the same
	// way instead of being continued under the hashed rule.
	man, err := ckpt.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.ConfigHash = "c9c770952769d5e3"
	if err := ckpt.WriteManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(3, func(c *mpi.Comm) error {
		_, err := Resume(c, dir, Baseline())
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "config fingerprint") {
		t.Fatalf("parent-format manifest: error = %v, want config fingerprint mismatch", err)
	}

	// And one written by ea93e17 — hashed ties, but returns undamped
	// (TestFingerprintRefusesUndampedTrajectories).
	man.ConfigHash = "3fe5d2c9646e1c13"
	if err := ckpt.WriteManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(3, func(c *mpi.Comm) error {
		_, err := Resume(c, dir, Baseline())
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "config fingerprint") {
		t.Fatalf("undamped-format manifest: error = %v, want config fingerprint mismatch", err)
	}
}

func TestResumeNamesCorruptFile(t *testing.T) {
	n, edges := gen.ErdosRenyi(300, 1500, 5)
	dir := makeCheckpoint(t, n, edges, Baseline())
	man, err := ckpt.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := man.Files[1]
	data, err := os.ReadFile(filepath.Join(dir, victim))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40 // inside the last section's payload
	if err := os.WriteFile(filepath.Join(dir, victim), data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Capture each rank's own error: rank 1 reads the corrupt file and its
	// message must name both the file and the failing section.
	msgs, err := mpi.RunCollect(3, func(c *mpi.Comm) (string, error) {
		_, rerr := Resume(c, dir, Baseline())
		if rerr == nil {
			return "", nil
		}
		return rerr.Error(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if msgs[1] == "" {
		t.Fatal("rank 1 accepted a corrupted snapshot")
	}
	if !strings.Contains(msgs[1], victim) || !strings.Contains(msgs[1], "section") {
		t.Fatalf("rank 1 error lacks file/section context: %s", msgs[1])
	}
	for r, m := range msgs {
		if m == "" {
			t.Fatalf("rank %d resumed despite corrupt world state", r)
		}
	}
}
