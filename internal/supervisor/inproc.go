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
	// attempt's world — the place to wrap the endpoint for fault injection,
	// to pass communicator options and to attach a tracer or counters. It
	// is called on the launching goroutine, in rank order, before any rank
	// of the attempt starts. nil selects mpi.NewComm(ep).
	Comm func(spec LaunchSpec, r int, ep mpi.Transport) *mpi.Comm

	mu     sync.Mutex
	result *core.Result // rank-0 result of the completed attempt
	ranks  int          // world size of the completed attempt
}

type worldAttempt struct {
	world     *mpi.InprocWorld
	interrupt atomic.Bool
	done      chan struct{}
	err       error
}

func (a *worldAttempt) Wait() error { <-a.done; return a.err }
func (a *worldAttempt) Kill()       { a.world.Close() }
func (a *worldAttempt) Interrupt()  { a.interrupt.Store(true) }

// Launch implements Launcher.
func (l *InprocLauncher) Launch(spec LaunchSpec, beacons func(Beacon)) (Attempt, error) {
	world, err := mpi.NewInprocWorld(spec.Ranks)
	if err != nil {
		return nil, err
	}
	comms := make([]*mpi.Comm, spec.Ranks)
	for r := range comms {
		if l.Comm != nil {
			comms[r] = l.Comm(spec, r, world.Endpoint(r))
		} else {
			comms[r] = mpi.NewComm(world.Endpoint(r))
		}
	}
	a := &worldAttempt{world: world, done: make(chan struct{})}
	go l.run(a, spec, comms, beacons)
	return a, nil
}

func (l *InprocLauncher) run(a *worldAttempt, spec LaunchSpec, comms []*mpi.Comm, beacons func(Beacon)) {
	defer close(a.done)
	defer a.world.Close()
	errs := make([]error, spec.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < spec.Ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("rank %d panicked: %v", r, p)
					a.world.Close()
				}
			}()
			c := comms[r]
			cfg := l.Config
			cfg.Tracer = c.Tracer()
			cfg.Progress = CoreProgressTraced(r, 0, cfg.Tracer, beacons)
			cfg.Interrupted = a.interrupt.Load
			beacons(Beacon{Rank: r, Kind: KindHello})
			res, err := l.Body(c, cfg, spec.Resume)
			if err != nil {
				errs[r] = err
				a.world.Close()
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

// Retryable classifies a world failure: transient failures (lost peer,
// expired deadline, injected kill, hang diagnosis, graceful interrupt)
// warrant a relaunch from the latest checkpoint; anything else is a
// deterministic bug.
func Retryable(err error) bool {
	var pl *mpi.ErrPeerLost
	var he *HangError
	return errors.As(err, &pl) ||
		errors.As(err, &he) ||
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
