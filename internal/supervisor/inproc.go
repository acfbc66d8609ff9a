package supervisor

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"distlouvain/internal/ckpt"
	"distlouvain/internal/core"
	"distlouvain/internal/mpi"
)

// InprocLauncher launches attempts as in-process goroutine worlds: one
// goroutine per rank over an mpi.InprocWorld, beacons delivered by direct
// call, Kill = closing the world. A rank that fails or panics closes the
// world, so its peers unblock instead of waiting for it. Set the exported
// fields before the first Launch.
type InprocLauncher struct {
	// Config is every rank's base configuration. The launcher adds the
	// per-rank Progress (beacons) and Interrupted hooks, and the Tracer of
	// the rank's communicator.
	Config core.Config
	// Body runs one rank of an attempt to completion: a cold start, or a
	// continuation from Config.CheckpointDir when resume is set.
	Body func(c *mpi.Comm, cfg core.Config, resume bool) (*core.Result, error)
	// Comm, when set, builds rank r's communicator over its endpoint of the
	// attempt's world (its FaultTransport when Inject is set) — the place to
	// pass communicator options and to attach a tracer or counters. It is
	// called on the launching goroutine, in rank order, before any rank of
	// the attempt starts. nil selects mpi.NewComm(ep).
	Comm func(spec LaunchSpec, r int, ep mpi.Transport) *mpi.Comm
	// Inject, when set, is shown every beacon of every rank before the
	// beacon is delivered, and each rank's endpoint is wrapped in an
	// mpi.FaultTransport: FaultKill kills that transport (the rank's next
	// send or receive fails with mpi.ErrKilled), FaultHang blocks the rank's
	// progress hook until its attempt is killed or its world closes. nil
	// wraps nothing.
	Inject Inject

	mu     sync.Mutex
	result *core.Result // rank-0 result of the completed attempt
	ranks  int          // world size of the completed attempt
}

type worldAttempt struct {
	world     *mpi.InprocWorld
	interrupt atomic.Bool
	closed    chan struct{} // closed with the world: releases hung ranks
	closeOnce sync.Once
	done      chan struct{}
	err       error
}

func (a *worldAttempt) Wait() error { <-a.done; return a.err }
func (a *worldAttempt) Kill()       { a.close() }
func (a *worldAttempt) Interrupt()  { a.interrupt.Store(true) }

// close tears the world down once: every blocked rank operation fails, and
// every rank FaultHang froze wakes up to find it gone.
func (a *worldAttempt) close() {
	a.closeOnce.Do(func() {
		a.world.Close()
		close(a.closed)
	})
}

// Launch implements Launcher.
func (l *InprocLauncher) Launch(spec LaunchSpec, beacons func(Beacon)) (Attempt, error) {
	world, err := mpi.NewInprocWorld(spec.Ranks)
	if err != nil {
		return nil, err
	}
	a := &worldAttempt{world: world, closed: make(chan struct{}), done: make(chan struct{})}
	comms := make([]*mpi.Comm, spec.Ranks)
	sinks := make([]func(Beacon), spec.Ranks)
	for r := range comms {
		ep, sink := world.Endpoint(r), beacons
		if l.Inject != nil {
			ft := mpi.NewFaultTransport(ep, mpi.FaultPlan{})
			ep, sink = ft, a.injecting(l.Inject, spec.Attempt, ft, beacons)
		}
		sinks[r] = sink
		if l.Comm != nil {
			comms[r] = l.Comm(spec, r, ep)
		} else {
			comms[r] = mpi.NewComm(ep)
		}
	}
	go l.run(a, spec, comms, sinks)
	return a, nil
}

// injecting puts the injection hook in front of one rank's beacon sink: the
// fault strikes the rank that emitted the beacon, on that rank's goroutine,
// before the beacon goes on.
func (a *worldAttempt) injecting(inject Inject, attempt int, ft *mpi.FaultTransport, beacons func(Beacon)) func(Beacon) {
	return func(b Beacon) {
		switch inject(attempt, b) {
		case FaultKill:
			ft.Kill()
		case FaultHang:
			<-a.closed
		}
		beacons(b)
	}
}

func (l *InprocLauncher) run(a *worldAttempt, spec LaunchSpec, comms []*mpi.Comm, sinks []func(Beacon)) {
	defer close(a.done)
	defer a.close()
	errs := make([]error, spec.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < spec.Ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("rank %d panicked: %v", r, p)
					a.close()
				}
			}()
			c := comms[r]
			cfg := l.Config
			cfg.Tracer = c.Tracer()
			cfg.Progress = CoreProgressTraced(r, cfg.Tracer, sinks[r])
			cfg.Interrupted = a.interrupt.Load
			sinks[r](Beacon{Rank: r, Kind: KindHello})
			res, err := l.Body(c, cfg, spec.Resume)
			if err != nil {
				errs[r] = err
				a.close()
				return
			}
			if r == 0 {
				l.mu.Lock()
				l.result, l.ranks = res, spec.Ranks
				l.mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	a.err = pickWorldError(errs)
}

// Result returns rank 0's result of the last attempt that completed, and
// that attempt's world size.
func (l *InprocLauncher) Result() (*core.Result, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.result, l.ranks
}

// Retryable is the one verdict on a world failure. An error with a
// Retryable() bool method in its chain states its own (HangError does).
// Otherwise a lost peer, expired deadline, FaultKill or graceful interrupt
// warrants a relaunch from the latest checkpoint; anything else is a bug.
func Retryable(err error) bool {
	var v interface{ Retryable() bool }
	if errors.As(err, &v) {
		return v.Retryable()
	}
	var pl *mpi.ErrPeerLost
	return errors.As(err, &pl) ||
		errors.Is(err, mpi.ErrKilled) ||
		errors.Is(err, os.ErrDeadlineExceeded) ||
		errors.Is(err, core.ErrInterrupted)
}

// pickWorldError selects the most meaningful failure from a world's per-rank
// errors: a fatal error wins over a retryable one, which wins over the
// ErrClosed collateral that peers report after the world is torn down. This
// keeps a deterministic bug from masquerading as retryable and looping away
// the restart budget.
func pickWorldError(errs []error) error {
	var retry, collateral error
	for r, e := range errs {
		if e == nil {
			continue
		}
		wrapped := fmt.Errorf("rank %d: %w", r, e)
		switch {
		case Retryable(e):
			if retry == nil {
				retry = wrapped
			}
		case errors.Is(e, mpi.ErrClosed):
			if collateral == nil {
				collateral = wrapped
			}
		default:
			return wrapped
		}
	}
	if retry != nil {
		return retry
	}
	return collateral
}

// HasCheckpoint reports whether dir holds a committed checkpoint manifest.
func HasCheckpoint(dir string) bool {
	if dir == "" {
		return false
	}
	_, err := ckpt.ReadManifest(dir)
	return err == nil
}
