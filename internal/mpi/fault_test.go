package mpi

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// runTCPWorldFaulty runs body over a TCP world where every rank's transport
// is wrapped in a FaultTransport (zero plan unless rank == doomed). Unlike
// runTCPWorld it returns the per-rank errors instead of failing the test,
// so chaos tests can assert on who failed and how.
//
// No endpoint is closed before every body has returned: a survivor that has
// observed the doomed rank's death and left would otherwise be seen departing
// by a slower survivor still inside its collective, which then blames the
// survivor instead of the doomed rank.
func runTCPWorldFaulty(t *testing.T, size, doomed int, plan FaultPlan, body func(c *Comm, ft *FaultTransport) error, opts ...CommOption) []error {
	t.Helper()
	addrs := freeAddrs(t, size)
	errs := make([]error, size)
	var wg, bodies sync.WaitGroup
	bodies.Add(size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tp, err := DialTCPWorld(TCPWorldConfig{Rank: r, Addrs: addrs})
			if err != nil {
				errs[r] = err
				bodies.Done()
				return
			}
			p := FaultPlan{}
			if r == doomed {
				p = plan
			}
			ft := NewFaultTransport(tp, p)
			defer ft.Close()
			errs[r] = body(NewComm(ft, opts...), ft)
			bodies.Done()
			bodies.Wait()
		}(r)
	}
	wg.Wait()
	return errs
}

// expectPeerLost asserts err is an *ErrPeerLost naming the given peer.
func expectPeerLost(t *testing.T, err error, peer int, ctx string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: expected peer-lost error, got nil", ctx)
	}
	var pl *ErrPeerLost
	if !errors.As(err, &pl) {
		t.Fatalf("%s: expected *ErrPeerLost, got %v", ctx, err)
	}
	if pl.Peer != peer {
		t.Fatalf("%s: lost peer %d, want %d (err: %v)", ctx, pl.Peer, peer, err)
	}
	if !strings.Contains(err.Error(), fmt.Sprint(peer)) {
		t.Fatalf("%s: error does not mention peer %d: %v", ctx, peer, err)
	}
}

// TestFaultKillMidBarrier kills one rank between two barriers: every
// survivor's second Barrier must return ErrPeerLost promptly instead of
// blocking forever.
func TestFaultKillMidBarrier(t *testing.T) {
	const p, doomed = 4, 2
	start := time.Now()
	errs := runTCPWorldFaulty(t, p, doomed, FaultPlan{}, func(c *Comm, ft *FaultTransport) error {
		if err := c.Barrier(); err != nil {
			return fmt.Errorf("first barrier: %w", err)
		}
		if c.Rank() == doomed {
			ft.Kill()
			return nil
		}
		return c.Barrier()
	})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("world took %v to fail; fail-fast broken", elapsed)
	}
	for r, err := range errs {
		if r == doomed {
			if err != nil {
				t.Fatalf("doomed rank: unexpected error %v", err)
			}
			continue
		}
		expectPeerLost(t, err, doomed, fmt.Sprintf("survivor rank %d", r))
	}
}

// TestFaultKillMidAllreduce kills one rank before it contributes to an
// allreduce; survivors must error rather than wait for the contribution.
func TestFaultKillMidAllreduce(t *testing.T) {
	const p, doomed = 3, 1
	errs := runTCPWorldFaulty(t, p, doomed, FaultPlan{}, func(c *Comm, ft *FaultTransport) error {
		if _, err := c.AllreduceInt64(int64(c.Rank()), OpSum); err != nil {
			return fmt.Errorf("first allreduce: %w", err)
		}
		if c.Rank() == doomed {
			ft.Kill()
			return nil
		}
		_, err := c.AllreduceInt64(int64(c.Rank()), OpSum)
		return err
	})
	for r, err := range errs {
		if r == doomed {
			continue
		}
		expectPeerLost(t, err, doomed, fmt.Sprintf("survivor rank %d", r))
	}
}

// TestFaultKillMidBcast kills the broadcast root; the tree below it must
// observe the loss.
func TestFaultKillMidBcast(t *testing.T) {
	const p, doomed = 3, 0
	errs := runTCPWorldFaulty(t, p, doomed, FaultPlan{}, func(c *Comm, ft *FaultTransport) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == doomed {
			ft.Kill()
			return nil
		}
		_, err := c.Bcast(doomed, []byte("payload"))
		return err
	})
	for r, err := range errs {
		if r == doomed {
			continue
		}
		expectPeerLost(t, err, doomed, fmt.Sprintf("survivor rank %d", r))
	}
}

// TestFaultScheduledKill exercises the KillAfterSends schedule: the doomed
// rank dies on its own after a fixed number of sends and every survivor
// still unblocks with ErrPeerLost.
func TestFaultScheduledKill(t *testing.T) {
	const p, doomed = 3, 1
	errs := runTCPWorldFaulty(t, p, doomed, FaultPlan{KillAfterSends: 3}, func(c *Comm, ft *FaultTransport) error {
		for i := 0; i < 50; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if errs[doomed] == nil {
		t.Fatal("doomed rank survived its own kill schedule")
	}
	if !errors.Is(errs[doomed], ErrKilled) {
		t.Fatalf("doomed rank error = %v, want ErrKilled", errs[doomed])
	}
	for r, err := range errs {
		if r == doomed {
			continue
		}
		expectPeerLost(t, err, doomed, fmt.Sprintf("survivor rank %d", r))
	}
}

// TestFaultPartitionDeadline models a partition that keeps connections open:
// the doomed rank stays connected but never enters the collective, so no
// stream ends and only the survivors' collective deadline can surface it.
func TestFaultPartitionDeadline(t *testing.T) {
	const p, doomed = 3, 2
	start := time.Now()
	errs := runTCPWorldFaulty(t, p, doomed, FaultPlan{}, func(c *Comm, ft *FaultTransport) error {
		if c.Rank() == doomed {
			// Outlive the survivors' deadline so the graceful-shutdown
			// notice cannot race the timeout under test.
			time.Sleep(time.Second)
			return nil
		}
		return c.Barrier()
	}, WithTimeout(300*time.Millisecond))
	elapsed := time.Since(start)
	for r, err := range errs {
		if r != doomed && !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("survivor rank %d: got %v, want the collective deadline", r, err)
		}
	}
	if errs[doomed] != nil {
		t.Fatalf("doomed rank: %v", errs[doomed])
	}
	if elapsed > 10*time.Second {
		t.Fatalf("partition took %v to surface", elapsed)
	}
}

// TestInprocDeadline: the in-process transport cannot detect peer death at
// all, so the deadline is the only defence; a rank that stops participating
// must not hang the world.
func TestInprocDeadline(t *testing.T) {
	// p=2 keeps the assertion deterministic: exactly one survivor, so the
	// first error Run reports is necessarily the deadline expiry.
	const p, doomed = 2, 1
	err := Run(p, func(c *Comm) error {
		if c.Rank() == doomed {
			return nil // silently stops participating
		}
		return c.Barrier()
	}, WithTimeout(200*time.Millisecond))
	if err == nil {
		t.Fatal("barrier with absent rank succeeded")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("error = %v, want deadline", err)
	}
}

// TestNoGoroutineLeakAfterKill runs a chaos scenario and then verifies no
// goroutine remains parked in matchQueue.pop — the signature of the old
// hang.
func TestNoGoroutineLeakAfterKill(t *testing.T) {
	const p, doomed = 3, 1
	runTCPWorldFaulty(t, p, doomed, FaultPlan{}, func(c *Comm, ft *FaultTransport) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == doomed {
			ft.Kill()
			return nil
		}
		c.Barrier()
		_, err := c.AllreduceInt64(1, OpSum)
		return err
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "matchQueue).pop") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine still blocked in matchQueue.pop:\n%s", stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRendezvousFailureNoConnLeak: when one rank never shows up, the ranks
// that did connect must fail and release every established connection —
// afterwards nothing should be listening or half-open on the reserved
// ports.
func TestRendezvousFailureNoConnLeak(t *testing.T) {
	addrs := freeAddrs(t, 3)
	// Ranks 0 and 1 start; rank 2 never does. Rank 0 accepts 1's dial,
	// then both block on rank 2 until the short deadline expires.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tp, err := DialTCPWorld(TCPWorldConfig{
				Rank:            r,
				Addrs:           addrs,
				DialTimeout:     100 * time.Millisecond,
				ConnectDeadline: 500 * time.Millisecond,
			})
			if err == nil {
				tp.Close()
				errs[r] = fmt.Errorf("rendezvous unexpectedly succeeded")
				return
			}
			errs[r] = nil
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	// The straggler-drain goroutines close leftover conns within the
	// connect deadline; afterwards the listeners must be gone too.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, err := net.DialTimeout("tcp", addrs[0], 50*time.Millisecond); err != nil {
			return // listener closed; nothing accepting
		}
		if time.Now().After(deadline) {
			t.Fatal("rank 0's listener still accepting after failed rendezvous")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFaultDropDeadline: a message that never arrives leaves the receiver
// waiting; the per-Recv deadline converts the silence into an error. The
// sender stays connected and sends on another tag, so the link is live and
// only the awaited message is missing.
func TestFaultDropDeadline(t *testing.T) {
	const p, doomed = 2, 0
	errs := runTCPWorldFaulty(t, p, doomed, FaultPlan{}, func(c *Comm, ft *FaultTransport) error {
		if c.Rank() == doomed {
			err := c.Send(1, 6, []byte("other tag"))
			// Outlive the receiver's deadline so the graceful-shutdown
			// notice cannot race the timeout under test.
			time.Sleep(time.Second)
			return err
		}
		_, err := c.Recv(0, 5)
		return err
	}, WithTimeout(200*time.Millisecond))
	if errs[doomed] != nil {
		t.Fatalf("sender: %v", errs[doomed])
	}
	if !errors.Is(errs[1], os.ErrDeadlineExceeded) {
		t.Fatalf("receiver error = %v, want deadline", errs[1])
	}
}
