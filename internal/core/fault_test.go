package core

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
)

// chaosFreeAddrs reserves n loopback ports for a test-local TCP world.
func chaosFreeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs
}

// runTCPRanks runs body on every rank of a p-rank static-address loopback TCP
// world, the doomed rank's transport on the given fault plan (pass doomed = −1
// for none). It returns each rank's error, rank 0's result and the doomed
// rank's send count at exit.
func runTCPRanks(t *testing.T, p, doomed int, plan mpi.FaultPlan, body func(c *mpi.Comm, ft *mpi.FaultTransport) (*Result, error)) (errs []error, root *Result, total int64) {
	t.Helper()
	addrs := chaosFreeAddrs(t, p)
	errs = make([]error, p)
	var wg sync.WaitGroup
	for r := range p {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tp, err := mpi.DialTCPWorld(mpi.TCPWorldConfig{Rank: r, Addrs: addrs})
			if err != nil {
				errs[r] = err
				return
			}
			rankPlan := mpi.FaultPlan{}
			if r == doomed {
				rankPlan = plan
			}
			ft := mpi.NewFaultTransport(tp, rankPlan)
			defer ft.Close()
			res, err := body(mpi.NewComm(ft, mpi.WithTimeout(10*time.Second)), ft)
			errs[r] = err
			if r == 0 {
				root = res
			}
			if r == doomed {
				total = ft.Sends()
			}
		}()
	}
	wg.Wait()
	return errs, root, total
}

// runChaosTCP runs the full distributed Louvain pipeline (Build + Run) on p
// TCP ranks, the doomed rank's transport on the given plan. It returns each
// rank's error, rank 0's result and, for the doomed rank, the send counts
// observed right after Build and at exit — the calibration data the kill
// schedule needs.
func runChaosTCP(t *testing.T, p, doomed int, plan mpi.FaultPlan, n int64, edges []graph.RawEdge, cfg Config) (errs []error, root *Result, afterBuild, total int64) {
	t.Helper()
	var ab atomic.Int64
	errs, root, total = runTCPRanks(t, p, doomed, plan, func(c *mpi.Comm, ft *mpi.FaultTransport) (*Result, error) {
		lo, hi := gio.SegmentRange(int64(len(edges)), c.Rank(), p)
		dg, err := dgraph.Build(c, n, edges[lo:hi], nil)
		if err != nil {
			return nil, err
		}
		if c.Rank() == doomed {
			ab.Store(ft.Sends())
		}
		return Run(dg, cfg)
	})
	return errs, root, ab.Load(), total
}

// TestChaosKillMidRunTCP is the acceptance scenario: one rank's transport
// dies abruptly mid-iteration; every surviving rank's Run must return an
// error naming the lost peer — promptly, with no goroutine left blocked in
// Recv.
func TestChaosKillMidRunTCP(t *testing.T) {
	const p, doomed = 3, 1
	n, edges := gen.ErdosRenyi(300, 1500, 5)
	cfg := Baseline()

	// Calibration pass: a healthy run measuring the doomed rank's send
	// counts after Build and at completion. The pipeline is deterministic
	// (fixed seeds, one thread), so the same schedule replays identically.
	errs, _, afterBuild, total := runChaosTCP(t, p, doomed, mpi.FaultPlan{}, n, edges, cfg)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("calibration rank %d: %v", r, err)
		}
	}
	if total <= afterBuild {
		t.Fatalf("no sends during Run (afterBuild=%d total=%d); cannot schedule a mid-run kill", afterBuild, total)
	}

	// Chaos pass: kill the doomed rank halfway through Run's sends.
	killAt := afterBuild + (total-afterBuild)/2
	if killAt <= afterBuild {
		killAt = afterBuild + 1
	}
	start := time.Now()
	errs, _, _, _ = runChaosTCP(t, p, doomed, mpi.FaultPlan{KillAfterSends: killAt}, n, edges, cfg)
	elapsed := time.Since(start)
	if elapsed > 60*time.Second {
		t.Fatalf("world took %v to fail; fail-fast broken", elapsed)
	}
	for r, err := range errs {
		if r == doomed {
			if err == nil {
				t.Fatal("doomed rank completed Run despite kill schedule")
			}
			if !errors.Is(err, mpi.ErrKilled) {
				t.Fatalf("doomed rank error = %v, want ErrKilled", err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("survivor rank %d: Run returned nil after peer death", r)
		}
		var pl *mpi.ErrPeerLost
		if !errors.As(err, &pl) {
			t.Fatalf("survivor rank %d: error %v does not carry ErrPeerLost", r, err)
		}
		if pl.Peer != doomed {
			t.Fatalf("survivor rank %d: lost peer %d, want %d", r, pl.Peer, doomed)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("peer rank %d", doomed)) {
			t.Fatalf("survivor rank %d: error does not mention the lost peer: %v", r, err)
		}
	}

	// No goroutine may remain parked in a Recv (matchQueue.pop) — that was
	// the original hang.
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "matchQueue).pop") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine still blocked in Recv after chaos run:\n%s", stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosInprocDeadlineMidRun covers the transport that cannot observe
// peer death at all: a rank silently stops participating after Build, and
// the collective deadline is what turns the survivors' hang into an error.
func TestChaosInprocDeadlineMidRun(t *testing.T) {
	const p, doomed = 3, 2
	n, edges := gen.ErdosRenyi(200, 800, 9)
	cfg := Baseline()

	world, err := mpi.NewInprocWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()

	errs := make([]error, p)
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := mpi.NewComm(world.Endpoint(r), mpi.WithTimeout(500*time.Millisecond))
			lo, hi := gio.SegmentRange(int64(len(edges)), r, p)
			dg, err := dgraph.Build(c, n, edges[lo:hi], nil)
			if err != nil {
				errs[r] = err
				return
			}
			if r == doomed {
				return // vanishes without a trace: inproc has no EOF to see
			}
			_, errs[r] = Run(dg, cfg)
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed > 30*time.Second {
		t.Fatalf("survivors took %v to notice the absent rank", elapsed)
	}
	if errs[doomed] != nil {
		t.Fatalf("doomed rank: %v", errs[doomed])
	}
	for r, err := range errs {
		if r == doomed {
			continue
		}
		if err == nil {
			t.Fatalf("survivor rank %d: Run returned nil despite absent peer", r)
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("survivor rank %d: error = %v, want deadline expiry", r, err)
		}
	}
}
