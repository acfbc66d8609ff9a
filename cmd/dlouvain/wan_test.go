package main

// The WAN chaos suite: multi-process, multi-listener worlds rendezvousing
// through a real coordinator, disturbed by real-socket faults — host SIGKILL,
// asymmetric partition, absent coordinator, stale-epoch ranks, slow links —
// and required to finish bit-identical to an undisturbed run. Everything here
// runs over genuine kernel TCP sockets; nothing is faked in-process.
//
// Run with `make test-wan` (wired into `make check`).

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"distlouvain/internal/chaosnet"
	"distlouvain/internal/coord"
)

// syncBuf is a concurrency-safe writer capturing a subprocess's output while
// the test polls it for progress markers.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitForLine polls the buffer until some single line contains every
// substring, or fails the test at the deadline.
func waitForLine(t *testing.T, sb *syncBuf, timeout time.Duration, subs ...string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		for _, line := range strings.Split(sb.String(), "\n") {
			ok := true
			for _, sub := range subs {
				if !strings.Contains(line, sub) {
					ok = false
					break
				}
			}
			if ok {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no line with %q within %v; output so far:\n%s", subs, timeout, sb.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// reserveLoopbackAddr grabs a free loopback port and releases it for the
// caller to bind shortly after.
func reserveLoopbackAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// referenceOutput runs the undisturbed in-process world at the given size and
// returns its output file: the bit-identity baseline for that rank count.
func referenceOutput(t *testing.T, bin, graph string, np int) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), fmt.Sprintf("ref-np%d.out", np))
	cmd := exec.Command(bin, "-np", fmt.Sprint(np), "-o", out, graph)
	if outp, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("np-%d reference run: %v\n%s", np, err, outp)
	}
	return out
}

// startHostAgent launches a dlouvain host agent in its own process group, so
// SIGKILLing the group is a whole-host crash (the agent's rank processes
// share its group by design). The group is killed at test cleanup.
func startHostAgent(t *testing.T, bin, coordAddr, job, host string, slots int) (*exec.Cmd, *syncBuf) {
	t.Helper()
	var log syncBuf
	cmd := exec.Command(bin, "-host-agent", "-coord", coordAddr, "-coord-job", job,
		"-agent-host", host, "-slots", fmt.Sprint(slots))
	cmd.Stdout = &log
	cmd.Stderr = &log
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start agent %s: %v", host, err)
	}
	t.Cleanup(func() {
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		cmd.Wait()
	})
	return cmd, &log
}

// waitForHosts blocks until the coordinator's membership snapshot for the job
// lists want hosts.
func waitForHosts(t *testing.T, coordAddr, job string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ctrl, err := coord.DialController(coordAddr, job, 0)
		if err == nil {
			n := 0
			for ev := range ctrl.Events {
				if ev.Kind == coord.EventHost {
					n++
				}
				if ev.Kind == coord.EventSync {
					break
				}
			}
			ctrl.Close()
			if n >= want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never saw %d hosts for job %q", want, job)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// coordRank builds the exec.Cmd for one coordinator-rendezvous rank process.
func coordRank(bin, coordAddr, job string, epoch, rank, np int, extra []string, graph string) *exec.Cmd {
	args := []string{"-transport", "tcp", "-coord", coordAddr, "-coord-job", job,
		"-coord-epoch", fmt.Sprint(epoch), "-rank", fmt.Sprint(rank), "-np", fmt.Sprint(np)}
	args = append(args, extra...)
	args = append(args, graph)
	return exec.Command(bin, args...)
}

// wantExit asserts a finished subprocess exited with the given code.
func wantExit(t *testing.T, label string, err error, log *syncBuf, code int) {
	t.Helper()
	if code == 0 {
		if err != nil {
			t.Fatalf("%s: %v\n%s", label, err, log.String())
		}
		return
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != code {
		t.Fatalf("%s: err = %v, want exit %d\n%s", label, err, code, log.String())
	}
}

// TestWANHostKillReplacement kills an entire "host" — the agent process group
// including the rank it runs — mid-iteration. The coordinator's lease reaper
// must condemn the silent host, the tcp-remote driver must re-place the dead
// host's rank on the survivor (oversubscribing its slots), and the healed
// world must finish bit-identical to the undisturbed run.
func TestWANHostKillReplacement(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN chaos is not -short friendly")
	}
	bin, graph, refOut := buildBinaryAndGraph(t)
	srv, err := coord.Serve("127.0.0.1:0", coord.ServerConfig{
		LeaseTTL: 500 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const job = "wan-kill"
	startHostAgent(t, bin, srv.Addr(), job, "h1", 2)
	agent2, _ := startHostAgent(t, bin, srv.Addr(), job, "h2", 1)
	waitForHosts(t, srv.Addr(), job, 2)

	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	var log syncBuf
	drv := exec.Command(bin, "-transport", "tcp-remote",
		"-coord", srv.Addr(), "-coord-job", job, "-np", "3",
		"-ckpt-dir", filepath.Join(dir, "ck"), "-backoff", "20ms", "-v",
		"-o", out, graph)
	drv.Stdout = &log
	drv.Stderr = &log
	if err := drv.Start(); err != nil {
		t.Fatal(err)
	}

	// Hosts sort as [h1 h2] and slots expand to [h1 h1 h2], so rank 2 lands
	// on h2 deterministically. Wait until it is actually iterating, then
	// SIGKILL the whole host group: agent and rank die together, silently.
	waitForLine(t, &log, 60*time.Second, "rank 2 -> host h2")
	waitForLine(t, &log, 60*time.Second, "{Rank:2", "Kind:iteration")
	syscall.Kill(-agent2.Process.Pid, syscall.SIGKILL)

	err = drv.Wait()
	wantExit(t, "driver", err, &log, 0)
	if !strings.Contains(log.String(), `condemned host "h2"`) {
		t.Fatalf("the coordinator never condemned the killed host:\n%s", log.String())
	}
	sameFile(t, "host kill", out, refOut)
}

// TestWANAsymmetricPartitionHeal breaks exactly one direction of the (0,1)
// link — rank 0 goes deaf to rank 1 but keeps talking — through a real-socket
// chaos proxy. Both ranks must classify the stall as retryable (exit 3), and
// a post-heal relaunch at the next epoch must finish bit-identical.
func TestWANAsymmetricPartitionHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN chaos is not -short friendly")
	}
	bin, graph, _ := buildBinaryAndGraph(t)
	ref2 := referenceOutput(t, bin, graph, 2)
	srv, err := coord.Serve("127.0.0.1:0", coord.ServerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Rank 1 dials rank 0 (rank i dials every j < i), so fronting rank 0's
	// listener puts both directions of the only mesh link behind the proxy.
	backend := reserveLoopbackAddr(t)
	px, err := chaosnet.New("127.0.0.1:0", backend, chaosnet.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	px.Partition(chaosnet.AnyPeer, chaosnet.DirIn, true)

	const job = "wan-part"
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	common := []string{"-ckpt-dir", filepath.Join(dir, "ck"),
		"-timeout", "1s", "-o", out}
	rank0Extra := append(append([]string{}, common...), "-listen", backend, "-advertise", px.Addr())

	launch := func(epoch int) (r0, r1 *exec.Cmd, log0, log1 *syncBuf) {
		log0, log1 = &syncBuf{}, &syncBuf{}
		r0 = coordRank(bin, srv.Addr(), job, epoch, 0, 2, rank0Extra, graph)
		r1 = coordRank(bin, srv.Addr(), job, epoch, 1, 2, common, graph)
		r0.Stdout, r0.Stderr = log0, log0
		r1.Stdout, r1.Stderr = log1, log1
		if err := r0.Start(); err != nil {
			t.Fatal(err)
		}
		if err := r1.Start(); err != nil {
			t.Fatal(err)
		}
		return
	}

	// Epoch 1: the handshake passes (the proxy forwards it verbatim), the
	// mesh forms, and then every frame toward rank 0 vanishes. Rank 0's
	// deadline expires; rank 1 sees the peer die. Both must exit retryable.
	r0, r1, log0, log1 := launch(1)
	wantExit(t, "rank 0 under partition", r0.Wait(), log0, exitRetryable)
	wantExit(t, "rank 1 under partition", r1.Wait(), log1, exitRetryable)

	// Heal and relaunch at epoch 2: same proxy, same address, clean finish.
	px.Partition(chaosnet.AnyPeer, chaosnet.DirIn, false)
	r0, r1, log0, log1 = launch(2)
	wantExit(t, "rank 0 after heal", r0.Wait(), log0, 0)
	wantExit(t, "rank 1 after heal", r1.Wait(), log1, 0)
	sameFile(t, "asymmetric partition", out, ref2)
}

// TestWANLateCoordinatorRendezvous starts the ranks before any coordinator
// exists: the join loop must retry with backoff over real refused connections
// and seal the world once the coordinator appears, with no rank restarted.
func TestWANLateCoordinatorRendezvous(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN chaos is not -short friendly")
	}
	bin, graph, _ := buildBinaryAndGraph(t)
	ref2 := referenceOutput(t, bin, graph, 2)

	const job = "wan-late"
	coordAddr := reserveLoopbackAddr(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	common := []string{"-o", out}
	log0, log1 := &syncBuf{}, &syncBuf{}
	r0 := coordRank(bin, coordAddr, job, 1, 0, 2, common, graph)
	r1 := coordRank(bin, coordAddr, job, 1, 1, 2, common, graph)
	r0.Stdout, r0.Stderr = log0, log0
	r1.Stdout, r1.Stderr = log1, log1
	if err := r0.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r1.Start(); err != nil {
		t.Fatal(err)
	}

	// Let both ranks burn a few refused dials, then bring the coordinator up
	// on the address they were promised.
	time.Sleep(1 * time.Second)
	srv, err := coord.Serve(coordAddr, coord.ServerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatalf("late coordinator bind: %v", err)
	}
	defer srv.Close()

	wantExit(t, "rank 0 with late coordinator", r0.Wait(), log0, 0)
	wantExit(t, "rank 1 with late coordinator", r1.Wait(), log1, 0)
	sameFile(t, "late coordinator", out, ref2)
}

// TestWANStaleEpochFencedFast seals a world at epoch 2, then launches a rank
// claiming epoch 1 — the shape of a process crawling back from a healed
// partition. It must be rejected with a typed fencing error, quickly and
// terminally (exit 1, not the retryable 3, and no join-deadline hang).
func TestWANStaleEpochFencedFast(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN chaos is not -short friendly")
	}
	bin, graph, _ := buildBinaryAndGraph(t)
	srv, err := coord.Serve("127.0.0.1:0", coord.ServerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const job = "wan-fence"
	log0, log1 := &syncBuf{}, &syncBuf{}
	r0 := coordRank(bin, srv.Addr(), job, 2, 0, 2, nil, graph)
	r1 := coordRank(bin, srv.Addr(), job, 2, 1, 2, nil, graph)
	r0.Stdout, r0.Stderr = log0, log0
	r1.Stdout, r1.Stderr = log1, log1
	if err := r0.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r1.Start(); err != nil {
		t.Fatal(err)
	}
	wantExit(t, "epoch-2 rank 0", r0.Wait(), log0, 0)
	wantExit(t, "epoch-2 rank 1", r1.Wait(), log1, 0)

	stale := coordRank(bin, srv.Addr(), job, 1, 0, 2, nil, graph)
	staleLog := &syncBuf{}
	stale.Stdout, stale.Stderr = staleLog, staleLog
	start := time.Now()
	if err := stale.Start(); err != nil {
		t.Fatal(err)
	}
	werr := stale.Wait()
	elapsed := time.Since(start)
	wantExit(t, "stale epoch-1 rank", werr, staleLog, 1)
	if !strings.Contains(staleLog.String(), "fenced") {
		t.Fatalf("stale rank died without a fencing diagnostic:\n%s", staleLog.String())
	}
	if elapsed > 20*time.Second {
		t.Fatalf("fencing took %v; a stale rank must be rejected fast, not time out", elapsed)
	}
}

// TestWANSlowLink paces the whole (0,1) link at WAN-modem speed through the
// chaos proxy. The run must simply take longer and still finish bit-identical
// — congestion is not failure.
func TestWANSlowLink(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN chaos is not -short friendly")
	}
	bin, graph, _ := buildBinaryAndGraph(t)
	ref2 := referenceOutput(t, bin, graph, 2)
	srv, err := coord.Serve("127.0.0.1:0", coord.ServerConfig{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	backend := reserveLoopbackAddr(t)
	px, err := chaosnet.New("127.0.0.1:0", backend, chaosnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	px.SlowLink(1, chaosnet.DirIn, 256*1024)
	px.SlowLink(1, chaosnet.DirOut, 256*1024)

	const job = "wan-slow"
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	common := []string{"-o", out}
	rank0Extra := append(append([]string{}, common...), "-listen", backend, "-advertise", px.Addr())
	log0, log1 := &syncBuf{}, &syncBuf{}
	r0 := coordRank(bin, srv.Addr(), job, 1, 0, 2, rank0Extra, graph)
	r1 := coordRank(bin, srv.Addr(), job, 1, 1, 2, common, graph)
	r0.Stdout, r0.Stderr = log0, log0
	r1.Stdout, r1.Stderr = log1, log1
	if err := r0.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r1.Start(); err != nil {
		t.Fatal(err)
	}
	wantExit(t, "rank 0 on slow link", r0.Wait(), log0, 0)
	wantExit(t, "rank 1 on slow link", r1.Wait(), log1, 0)
	sameFile(t, "slow link", out, ref2)
}
