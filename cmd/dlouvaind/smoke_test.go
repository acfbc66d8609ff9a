// Process-level smoke test for the dlouvaind daemon: build the real binary,
// start it, submit jobs over HTTP, stream SSE progress, verify the answer
// against a CLI dlouvain run of the same graph, and drain it with SIGTERM.
// This is what `make service-smoke` runs in CI.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
)

// buildDaemonAndCLI compiles both binaries and writes the test graph plus
// the CLI reference assignment.
func buildDaemonAndCLI(t *testing.T) (daemon, graphPath, refOut string, refQ float64) {
	t.Helper()
	dir := t.TempDir()
	daemon = filepath.Join(dir, "dlouvaind")
	if out, err := exec.Command("go", "build", "-o", daemon, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build dlouvaind: %v\n%s", err, out)
	}
	cli := filepath.Join(dir, "dlouvain")
	if out, err := exec.Command("go", "build", "-o", cli, "../dlouvain").CombinedOutput(); err != nil {
		t.Fatalf("go build dlouvain: %v\n%s", err, out)
	}

	n, edges := gen.ErdosRenyi(300, 1500, 5)
	graphPath = filepath.Join(dir, "g.bin")
	if err := gio.WriteBinary(graphPath, n, edges); err != nil {
		t.Fatal(err)
	}

	refOut = filepath.Join(dir, "ref.out")
	out, err := exec.Command(cli, "-np", "3", "-o", refOut, graphPath).CombinedOutput()
	if err != nil {
		t.Fatalf("reference CLI run: %v\n%s", err, out)
	}
	refQ = parseModularity(t, string(out))
	return daemon, graphPath, refOut, refQ
}

// parseModularity extracts "modularity: <q>" (or "Q = <q>") from CLI output.
func parseModularity(t *testing.T, out string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		lower := strings.ToLower(line)
		if i := strings.Index(lower, "modularity"); i >= 0 {
			fields := strings.Fields(strings.ReplaceAll(line[i:], "=", " "))
			for _, f := range fields[1:] {
				if q, err := strconv.ParseFloat(strings.TrimRight(f, ","), 64); err == nil {
					return q
				}
			}
		}
	}
	t.Fatalf("no modularity in CLI output:\n%s", out)
	return 0
}

// startDaemon launches dlouvaind and waits for its API to come up.
func startDaemon(t *testing.T, bin, dataDir, addr string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir, "-rank-budget", "4")
	var logs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		t.Fatalf("start daemon: %v", err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill() //nolint:errcheck
			cmd.Wait()         //nolint:errcheck
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/v1/stats")
		if err == nil {
			resp.Body.Close()
			return cmd
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("daemon never came up on %s; logs:\n%s", addr, logs.String())
	return nil
}

// A zero restart budget would silently become service.Options' default of
// five; the daemon refuses it as a usage error instead.
func TestDaemonRejectsZeroMaxRestarts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	daemon := filepath.Join(t.TempDir(), "dlouvaind")
	if out, err := exec.Command("go", "build", "-o", daemon, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build dlouvaind: %v\n%s", err, out)
	}
	out, err := exec.Command(daemon, "-data-dir", t.TempDir(), "-max-restarts", "0").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-max-restarts must be >= 1") {
		t.Fatalf("-max-restarts 0: err %v, output:\n%s", err, out)
	}
}

// TestServerTimeouts: the daemon's server bounds how long a client may take
// over its request headers and how long an idle keep-alive connection
// stays open, and sets no write timeout, which would cut SSE streams off.
func TestServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := newServer(h)
	if srv.Handler != h {
		t.Fatal("the server does not serve the given handler")
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v: it would cut the SSE event stream off", srv.WriteTimeout)
	}
}

// TestDaemonFlagSetPinned ratchets the daemon's CLI surface the way
// dlouvain's TestFlagSetPinned does: adding a flag is a deliberate edit here.
func TestDaemonFlagSetPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	daemon := filepath.Join(t.TempDir(), "dlouvaind")
	if out, err := exec.Command("go", "build", "-o", daemon, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build dlouvaind: %v\n%s", err, out)
	}
	want := []string{
		"addr", "backoff", "cache-cap", "data-dir", "drain-wait", "hang",
		"keep-jobs", "max-queue", "max-restarts", "q", "rank-budget",
	}
	out, _ := exec.Command(daemon, "-h").CombinedOutput() // -h exits 0 or 2 by Go version
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		// FlagSet.PrintDefaults: "  -name type" then a tab-indented usage
		// line, already sorted by name.
		if strings.HasPrefix(line, "  -") {
			got = append(got, strings.Fields(line[3:])[0])
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("dlouvaind defines %d flags, pinned %d:\n got  %v\n want %v", len(got), len(want), got, want)
	}
}

func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	daemon, graphPath, refOut, refQ := buildDaemonAndCLI(t)
	dataDir := t.TempDir()
	addr := "127.0.0.1:7399"
	cmd := startDaemon(t, daemon, dataDir, addr)
	base := "http://" + addr

	// Submit the first job.
	spec, _ := json.Marshal(map[string]any{"graph_path": graphPath, "ranks": 3})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var v1 struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	dec := json.NewDecoder(resp.Body)
	dec.Decode(&v1) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || v1.ID == "" {
		t.Fatalf("submit: status %d view %+v", resp.StatusCode, v1)
	}

	// Stream its SSE events to completion; count phase starts.
	esResp, err := http.Get(base + "/v1/jobs/" + v1.ID + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer esResp.Body.Close()
	phaseStarts, sawDone := 0, false
	sc := bufio.NewScanner(esResp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: phase-start") {
			phaseStarts++
		}
		if strings.HasPrefix(line, "event: done") {
			sawDone = true
			break
		}
		if strings.HasPrefix(line, "event: failed") || strings.HasPrefix(line, "event: aborted") {
			t.Fatalf("job settled badly: %s", line)
		}
	}
	if !sawDone || phaseStarts < 1 {
		t.Fatalf("stream ended without done (%v) or phase starts (%d)", sawDone, phaseStarts)
	}

	// The daemon's result must match the CLI run: same modularity, same
	// assignment.
	var res struct {
		Modularity float64 `json:"modularity"`
		Phases     int     `json:"phases"`
		Assignment []int64 `json:"assignment"`
	}
	resp, err = http.Get(base + "/v1/jobs/" + v1.ID + "/result")
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	json.NewDecoder(resp.Body).Decode(&res) //nolint:errcheck
	resp.Body.Close()
	// The CLI prints Q with 6 decimals; the assignment check below is the
	// exact bit-identity assertion.
	if diff := res.Modularity - refQ; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("daemon modularity %v != CLI %v", res.Modularity, refQ)
	}
	if phaseStarts != res.Phases {
		t.Errorf("streamed %d phase-start events for %d phases", phaseStarts, res.Phases)
	}
	refLabels, err := gio.ReadGroundTruth(refOut, int64(len(res.Assignment)))
	if err != nil {
		t.Fatalf("read CLI labels: %v", err)
	}
	for i := range refLabels {
		if refLabels[i] != res.Assignment[i] {
			t.Fatalf("assignment diverges from the CLI run at vertex %d", i)
		}
	}

	// An identical second submission must be a cache hit, already done.
	resp, err = http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatalf("dup submit: %v", err)
	}
	var v2 struct {
		State    string `json:"state"`
		CacheHit bool   `json:"cache_hit"`
	}
	json.NewDecoder(resp.Body).Decode(&v2) //nolint:errcheck
	resp.Body.Close()
	if v2.State != "done" || !v2.CacheHit {
		t.Fatalf("duplicate not served from cache: %+v", v2)
	}
	var st struct {
		CacheHits      int64 `json:"cache_hits"`
		WorldsLaunched int64 `json:"worlds_launched"`
	}
	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	json.NewDecoder(resp.Body).Decode(&st) //nolint:errcheck
	resp.Body.Close()
	if st.CacheHits != 1 || st.WorldsLaunched != 1 {
		t.Fatalf("stats after duplicate: %+v", st)
	}

	// SIGTERM drains the daemon cleanly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not drain within 30s of SIGTERM")
	}

	// The job directory and its persisted state survive the daemon.
	if _, err := os.Stat(filepath.Join(dataDir, "jobs", v1.ID, "job.json")); err != nil {
		t.Fatalf("job record gone after shutdown: %v", err)
	}
	fmt.Println("daemon smoke: OK")
}
