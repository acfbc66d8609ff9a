package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"distlouvain/internal/core"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/mpi"
	"distlouvain/internal/seq"
)

func TestExitCodeFor(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, 0},
		{"plain", errors.New("boom"), 1},
		{"peer lost", &mpi.ErrPeerLost{Peer: 2, Cause: errors.New("eof")}, 3},
		{"wrapped peer lost", fmt.Errorf("rank 1: %w", &mpi.ErrPeerLost{Peer: 0, Cause: errors.New("eof")}), 3},
		{"killed", fmt.Errorf("send: %w", mpi.ErrKilled), 3},
		{"deadline", fmt.Errorf("collective: %w", os.ErrDeadlineExceeded), 3},
		{"usage-ish fatal", fmt.Errorf("bad graph header"), 1},
	}
	for _, c := range cases {
		if got := exitCodeFor(c.err); got != c.want {
			t.Errorf("%s: exitCodeFor = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestBuildConfig(t *testing.T) {
	cases := []struct {
		variant string
		alpha   float64
		want    string
		wantErr bool
	}{
		{"baseline", 0, "Baseline", false},
		{"tc", 0, "Threshold Cycling", false},
		{"et", 0.25, "ET(0.25)", false},
		{"etc", 0.75, "ETC(0.75)", false},
		{"ettc", 0.25, "ET(0.25)+TC", false},
		{"et", 0, "", true},
		{"ettc", 1.5, "", true},
		{"bogus", 0, "", true},
	}
	for _, c := range cases {
		cfg, err := buildConfig(c.variant, c.alpha)
		if c.wantErr {
			if err == nil {
				t.Fatalf("%s: expected error", c.variant)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.variant, err)
		}
		if got := cfg.VariantName(); got != c.want {
			t.Fatalf("%s: VariantName = %q, want %q", c.variant, got, c.want)
		}
	}
}

// TestReportRefusesUncertified: report certifies the gathered labels before it
// prints or writes anything. With one label moved after the run, the process
// exits 1 naming the reported and the certified Q, and writes no -o file; the
// untouched result certifies. The moved-label report runs in a child copy of
// this test binary, so that its exit is the real one.
func TestReportRefusesUncertified(t *testing.T) {
	dir := os.Getenv("DLOUVAIN_REPORT_CHILD")
	child := dir != ""
	if !child {
		dir = t.TempDir()
	}
	path, outPath := filepath.Join(dir, "g.bin"), filepath.Join(dir, "labels.out")
	n, edges, _ := gen.PlantedPartition(4, 20, 0.5, 0.05, 3)
	if !child {
		if err := gio.WriteBinary(path, n, edges); err != nil {
			t.Fatal(err)
		}
	}
	hdr, err := gio.ReadHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunOnEdges(2, n, edges, core.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seq.Check(hdr.Vertices, gio.Stream(path), res.GlobalComm, res.Modularity, res.Communities); err != nil {
		t.Fatalf("the run's own result: %v", err)
	}
	// Move vertex 0 into vertex 1's community, or the other way: both stay
	// in use, so only Q can tell.
	reported := res.Modularity
	if res.GlobalComm[0] == res.GlobalComm[1] {
		res.GlobalComm[0] = (res.GlobalComm[1] + 1) % res.Communities
	} else {
		res.GlobalComm[0] = res.GlobalComm[1]
	}
	if child {
		report(res, path, hdr, core.Baseline(), 2, outPath, "", false)
		os.Exit(0) // report exits 1 on its own
	}
	cert, err := seq.Check(hdr.Vertices, gio.Stream(path), res.GlobalComm, res.Modularity, res.Communities)
	if !errors.Is(err, seq.ErrMismatch) {
		t.Fatalf("moved label: %v, want seq.ErrMismatch", err)
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestReportRefusesUncertified$")
	cmd.Env = append(os.Environ(), "DLOUVAIN_REPORT_CHILD="+dir)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("report of a moved label: %v, want exit status 1\n%s", err, out)
	}
	for _, q := range []float64{reported, cert.Q} {
		if s := fmt.Sprintf("%.17g", q); !strings.Contains(string(out), s) {
			t.Errorf("output does not name Q %s:\n%s", s, out)
		}
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Errorf("-o file written for an uncertified result (%v)", err)
	}
}

// TestBadSegmentFailsRun: a record naming a vertex past the header's count, in
// the second 1024-record piece of rank 1's segment, fails a 2-rank run with
// gio's typed error once rank 1 has put arcs and rank 0 waits in the exchange.
// The process exits 1 (a rerun would fail the same way) and names the error,
// so every rank returned: the launcher waits for all of them.
func TestBadSegmentFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin, _, _ := buildBinaryAndGraph(t)
	n, edges := gen.ErdosRenyi(300, 3000, 7)
	lo, _ := gio.SegmentRange(int64(len(edges)), 1, 2)
	edges[lo+1100].V = n + 3
	path := filepath.Join(t.TempDir(), "bad.bin")
	if err := gio.WriteBinary(path, n, edges); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, "-np", "2", path).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), gio.ErrVertexRange.Error()) {
		t.Fatalf("-np 2 on a bad segment: err %v, output:\n%s", err, out)
	}
}
