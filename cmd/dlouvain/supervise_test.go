package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"distlouvain/internal/ckpt"
	"distlouvain/internal/coord"
	"distlouvain/internal/core"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/mpi"
	"distlouvain/internal/supervisor"
)

// TestAggregateExitCode folds per-rank exit statuses into the driver's, the
// way a process world's attempt does: exit events → childrenError →
// exitCodeFor. Success only when every rank succeeded, retryable only when
// every failure was retryable (so a wrapper may relaunch with -resume), fatal
// otherwise — one deterministic bug among crash collateral must surface as
// fatal.
func TestAggregateExitCode(t *testing.T) {
	cases := []struct {
		name  string
		codes []int // one exit event per rank
		want  int
	}{
		{"all ranks succeeded", []int{0, 0, 0}, 0},
		{"all failures retryable", []int{3, 3, 3}, exitRetryable},
		{"single retryable failure", []int{0, 3, 0}, exitRetryable},
		{"signal death is a lost peer", []int{0, -1, 3}, exitRetryable},
		{"mixed retryable and fatal", []int{3, 1, 3}, 1},
		{"all fatal", []int{1, 1}, 1},
	}
	for _, c := range cases {
		a := &remoteAttempt{
			l: &remoteLauncher{}, retryable: true,
			live: make(map[string]int), done: make(chan struct{}),
		}
		for r := range c.codes {
			a.live[fmt.Sprint("r", r)] = r
		}
		for r, code := range c.codes {
			a.exit(coord.Event{Kind: coord.EventExit, Host: "local", ID: fmt.Sprint("r", r), Code: code})
		}
		if got := exitCodeFor(a.Wait()); got != c.want {
			t.Errorf("%s: exit codes %v aggregate to %d, want %d", c.name, c.codes, got, c.want)
		}
	}
}

func TestExitCodeForSupervisorErrors(t *testing.T) {
	retryCause := &mpi.ErrPeerLost{Peer: 1, Cause: errors.New("eof")}
	cases := []struct {
		name string
		err  error
		want int
	}{
		// The supervisor's give-up errors are fatal even when the failure
		// they wrap was retryable: the budget IS the retry mechanism.
		{"budget exhausted", &supervisor.ExhaustedError{Restarts: 5, Last: retryCause}, 1},
		{"rank floor hit", &supervisor.MinRanksError{Ranks: 2, MinRanks: 2, Last: retryCause}, 1},
		{"graceful interrupt", fmt.Errorf("rank 0: %w", core.ErrInterrupted), exitRetryable},
		{"hang diagnosis", &supervisor.HangError{Suspects: []supervisor.Suspect{{Rank: 1}}}, exitRetryable},
		{"children all retryable", &childrenError{msg: "rank 1: exit status 3", retryable: true}, exitRetryable},
		{"children mixed fatal", &childrenError{msg: "rank 1: exit status 1", retryable: false}, 1},
	}
	for _, c := range cases {
		if got := exitCodeFor(c.err); got != c.want {
			t.Errorf("%s: exitCodeFor = %d, want %d", c.name, got, c.want)
		}
	}
}

// buildBinaryAndGraph compiles dlouvain and writes a multi-phase test graph,
// returning their paths plus the undisturbed reference output.
func buildBinaryAndGraph(t *testing.T) (bin, graphPath, refOut string) {
	t.Helper()
	dir := t.TempDir()
	bin = filepath.Join(dir, "dlouvain")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	n, edges := gen.ErdosRenyi(300, 1500, 5)
	graphPath = filepath.Join(dir, "g.bin")
	if err := gio.WriteBinary(graphPath, n, edges); err != nil {
		t.Fatal(err)
	}

	refOut = filepath.Join(dir, "ref.out")
	ref := exec.Command(bin, "-np", "3", "-o", refOut, graphPath)
	if out, err := ref.CombinedOutput(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, out)
	}
	return bin, graphPath, refOut
}

func sameFile(t *testing.T, label, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: supervised output differs from the undisturbed run", label)
	}
}

// TestSuperviseTCPLocalChaos is the process-level end of the chaos suite:
// child rank processes are SIGKILLed and SIGSTOPped mid-run and the
// supervised world must converge to the undisturbed run's exact assignment
// with no operator input.
func TestSuperviseTCPLocalChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level chaos is not -short friendly")
	}
	bin, graphPath, refOut := buildBinaryAndGraph(t)

	t.Run("sigkill mid-phase", func(t *testing.T) {
		dir := t.TempDir()
		out := filepath.Join(dir, "out")
		cmd := exec.Command(bin,
			"-transport", "tcp-local", "-np", "3", "-supervise",
			"-ckpt-dir", filepath.Join(dir, "ck"), "-backoff", "20ms",
			"-chaos", "kill=1@1",
			"-o", out, graphPath)
		outp, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("supervised run failed: %v\n%s", err, outp)
		}
		if !strings.Contains(string(outp), "chaos: kill=1@1 fires") {
			t.Fatalf("chaos injection never fired:\n%s", outp)
		}
		sameFile(t, "sigkill", out, refOut)
	})

	t.Run("sigstop hang", func(t *testing.T) {
		dir := t.TempDir()
		out := filepath.Join(dir, "out")
		cmd := exec.Command(bin,
			"-transport", "tcp-local", "-np", "3", "-supervise",
			"-ckpt-dir", filepath.Join(dir, "ck"), "-backoff", "20ms",
			"-hang", "300ms", "-chaos", "stop=2@1",
			"-o", out, graphPath)
		outp, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("supervised run failed: %v\n%s", err, outp)
		}
		if !strings.Contains(string(outp), "world hung") {
			t.Fatalf("hang was never diagnosed:\n%s", outp)
		}
		sameFile(t, "sigstop", out, refOut)
	})

	t.Run("budget exhaustion is fatal and distinct", func(t *testing.T) {
		dir := t.TempDir()
		cmd := exec.Command(bin,
			"-transport", "tcp-local", "-np", "3", "-supervise",
			"-ckpt-dir", filepath.Join(dir, "ck"), "-backoff", "20ms",
			"-max-restarts", "1",
			"-chaos", "kill=0@0,every",
			graphPath)
		outp, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Fatalf("err = %v (output %s), want fatal exit 1", err, outp)
		}
		if !strings.Contains(string(outp), "restart budget exhausted") {
			t.Fatalf("missing exhaustion diagnostic:\n%s", outp)
		}
	})

	t.Run("min-ranks violation is fatal and distinct", func(t *testing.T) {
		dir := t.TempDir()
		cmd := exec.Command(bin,
			"-transport", "tcp-local", "-np", "3", "-supervise",
			"-ckpt-dir", filepath.Join(dir, "ck"), "-backoff", "20ms",
			"-min-ranks", "3",
			"-chaos", "kill=0@0,every",
			graphPath)
		outp, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Fatalf("err = %v (output %s), want fatal exit 1", err, outp)
		}
		if !strings.Contains(string(outp), "rank floor") {
			t.Fatalf("missing rank-floor diagnostic:\n%s", outp)
		}
	})
}

// TestSuperviseInprocChaos drives the supervised in-process path end to end
// under the same -chaos rule the process worlds obey: a killed transport
// resumes from the phase-0 checkpoint, a frozen progress hook is diagnosed
// as a hang, and both runs end on the undisturbed run's file.
func TestSuperviseInprocChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	bin, graphPath, refOut := buildBinaryAndGraph(t)
	for _, tc := range []struct {
		name  string
		extra []string
		want  string // in the output
	}{
		{"kill", []string{"-chaos", "kill=1@2"}, "restart 1/"},
		{"stop", []string{"-hang", "300ms", "-chaos", "stop=2@1"}, "world hung"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			out := filepath.Join(dir, "out")
			args := append([]string{"-np", "3", "-supervise",
				"-ckpt-dir", filepath.Join(dir, "ck"), "-backoff", "20ms", "-o", out}, tc.extra...)
			outp, err := exec.Command(bin, append(args, graphPath)...).CombinedOutput()
			if err != nil {
				t.Fatalf("supervised run failed: %v\n%s", err, outp)
			}
			if !strings.Contains(string(outp), tc.want) {
				t.Fatalf("no %q in the output:\n%s", tc.want, outp)
			}
			sameFile(t, "inproc "+tc.name, out, refOut)
		})
	}
}

// TestTCPLocalUnsupervised covers -transport tcp-local without -supervise:
// one attempt of the process launcher over its embedded coordinator and
// agent. The clean run must write the in-process reference's file, and the
// README's kill → resume loop must converge to it bit for bit.
func TestTCPLocalUnsupervised(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	bin, graphPath, refOut := buildBinaryAndGraph(t)

	t.Run("clean run matches inproc", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "out")
		outp, err := exec.Command(bin, "-transport", "tcp-local", "-np", "3", "-o", out, graphPath).CombinedOutput()
		if err != nil {
			t.Fatalf("tcp-local run failed: %v\n%s", err, outp)
		}
		sameFile(t, "tcp-local", out, refOut)
	})

	t.Run("kill then resume loop", func(t *testing.T) {
		dir := t.TempDir()
		ck, out := filepath.Join(dir, "ck"), filepath.Join(dir, "out")
		// As in the README's until-loop: every pass consents to resuming,
		// the first one included (an empty directory starts cold).
		run := func(extra ...string) ([]byte, error) {
			args := []string{"-transport", "tcp-local", "-np", "3", "-ckpt-dir", ck, "-resume", "-o", out}
			args = append(append(args, extra...), graphPath)
			return exec.Command(bin, args...).CombinedOutput()
		}
		// Rank 1 is SIGKILLed once it reaches phase 2, past the boundaries
		// that commit the snapshots after phases 0 and 1 (each is committed
		// before the next phase starts), so a checkpoint exists to resume
		// from.
		outp, err := run("-chaos", "kill=1@2")
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != exitRetryable {
			t.Fatalf("killed run: err = %v, want retryable exit %d\n%s", err, exitRetryable, outp)
		}
		if !strings.Contains(string(outp), "peer rank") || !strings.Contains(string(outp), "world failed: rank") {
			t.Fatalf("killed run does not name the lost peer and the failed ranks:\n%s", outp)
		}
		if _, err := ckpt.ReadManifest(ck); err != nil {
			t.Fatalf("killed run left no checkpoint to resume from:\n%s", outp)
		}
		if outp, err = run(); err != nil {
			t.Fatalf("resumed run: %v\n%s", err, outp)
		}
		sameFile(t, "kill then resume", out, refOut)
	})
}

// TestResumeConsent pins -resume as consent. A checkpoint another graph left
// in -ckpt-dir is refused without -resume (exit 2, no output) even when a
// supervised relaunch would otherwise have continued it, and refused with
// -resume when its vertex count is not the input's. An empty directory
// under -resume starts cold and lands on the undisturbed run's file.
func TestResumeConsent(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	bin, graphA, refOut := buildBinaryAndGraph(t)
	dir := t.TempDir()
	nB, edgesB := gen.ErdosRenyi(200, 1000, 9)
	graphB := filepath.Join(dir, "b.bin")
	if err := gio.WriteBinary(graphB, nB, edgesB); err != nil {
		t.Fatal(err)
	}

	t.Run("stale checkpoint refused", func(t *testing.T) {
		ck := filepath.Join(t.TempDir(), "ck")
		if outp, err := exec.Command(bin, "-np", "3", "-ckpt-dir", ck, graphA).CombinedOutput(); err != nil {
			t.Fatalf("graph A run: %v\n%s", err, outp)
		}
		if _, err := ckpt.ReadManifest(ck); err != nil {
			t.Fatalf("graph A left no checkpoint: %v", err)
		}
		for _, tc := range []struct {
			name   string
			resume []string
			code   int
		}{
			{"without -resume", nil, 2},
			{"with -resume", []string{"-resume"}, 1},
		} {
			out := filepath.Join(t.TempDir(), "b.out")
			args := append([]string{"-np", "2", "-supervise", "-chaos", "kill=1@0", "-backoff", "20ms",
				"-ckpt-dir", ck, "-o", out}, tc.resume...)
			outp, err := exec.Command(bin, append(args, graphB)...).CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != tc.code {
				t.Fatalf("%s: err = %v, want exit %d\n%s", tc.name, err, tc.code, outp)
			}
			if strings.Contains(string(outp), "communities=") {
				t.Fatalf("%s: graph B printed a result:\n%s", tc.name, outp)
			}
			if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s: wrote %s (stat: %v)", tc.name, out, err)
			}
		}
	})

	t.Run("resume on an empty directory starts cold", func(t *testing.T) {
		dir := t.TempDir()
		out := filepath.Join(dir, "out")
		outp, err := exec.Command(bin, "-np", "3", "-ckpt-dir", filepath.Join(dir, "ck"), "-resume", "-o", out, graphA).CombinedOutput()
		if err != nil {
			t.Fatalf("-resume on an empty directory: %v\n%s", err, outp)
		}
		sameFile(t, "cold -resume", out, refOut)
	})
}
