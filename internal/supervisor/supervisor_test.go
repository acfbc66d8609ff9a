package supervisor

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// errTransient marks scripted failures the test classifier calls retryable.
var errTransient = errors.New("transient world failure")

// fakeAttempt is a scripted Attempt for supervision-loop tests.
type fakeAttempt struct {
	err         error
	release     chan struct{} // Wait blocks until closed; nil returns at once
	killed      atomic.Bool
	interrupted atomic.Bool
	killErr     error // error to report when killed mid-wait
}

func (a *fakeAttempt) Wait() error {
	if a.release != nil {
		<-a.release
	}
	if a.killed.Load() && a.killErr != nil {
		return a.killErr
	}
	return a.err
}

func (a *fakeAttempt) Kill() {
	a.killed.Store(true)
	if a.release != nil {
		select {
		case <-a.release:
		default:
			close(a.release)
		}
	}
}

func (a *fakeAttempt) Interrupt() {
	a.interrupted.Store(true)
	if a.release != nil {
		select {
		case <-a.release:
		default:
			close(a.release)
		}
	}
}

// fakeLauncher hands out scripted attempts in order and records the specs it
// was launched with.
type fakeLauncher struct {
	mu       sync.Mutex
	attempts []*fakeAttempt
	specs    []LaunchSpec
	sinks    []func(Beacon)
}

func (l *fakeLauncher) Launch(spec LaunchSpec, beacons func(Beacon)) (Attempt, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.specs) >= len(l.attempts) {
		return nil, fmt.Errorf("unscripted launch %d", len(l.specs))
	}
	a := l.attempts[len(l.specs)]
	l.specs = append(l.specs, spec)
	l.sinks = append(l.sinks, beacons)
	return a, nil
}

func (l *fakeLauncher) launched() []LaunchSpec {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]LaunchSpec(nil), l.specs...)
}

func fastOptions() Options {
	return Options{
		Policy: Policy{
			MaxRestarts:  3,
			BaseBackoff:  time.Millisecond,
			MaxBackoff:   2 * time.Millisecond,
			DegradeAfter: 2,
			MinRanks:     1,
		},
		Hang:      time.Hour,
		Retryable: func(err error) bool { return errors.Is(err, errTransient) },
	}
}

func TestSupervisorFirstAttemptSucceeds(t *testing.T) {
	l := &fakeLauncher{attempts: []*fakeAttempt{{}}}
	if err := New(l, fastOptions()).Run(4, false); err != nil {
		t.Fatal(err)
	}
	specs := l.launched()
	if len(specs) != 1 || specs[0].Ranks != 4 || specs[0].Resume || specs[0].Attempt != 0 {
		t.Fatalf("specs = %+v", specs)
	}
}

func TestSupervisorRetriesThenResumes(t *testing.T) {
	l := &fakeLauncher{attempts: []*fakeAttempt{{err: errTransient}, {}}}
	opt := fastOptions()
	opt.HasCheckpoint = func() bool { return true }
	if err := New(l, opt).Run(4, false); err != nil {
		t.Fatal(err)
	}
	specs := l.launched()
	if len(specs) != 2 {
		t.Fatalf("launches = %d, want 2", len(specs))
	}
	if specs[0].Resume {
		t.Fatal("first attempt should not resume")
	}
	if !specs[1].Resume {
		t.Fatal("relaunch after failure must resume from the checkpoint")
	}
	if specs[1].Ranks != 4 {
		t.Fatalf("one failure must not degrade: ranks = %d", specs[1].Ranks)
	}
	if specs[1].Attempt != 1 {
		t.Fatalf("attempt counter = %d, want 1", specs[1].Attempt)
	}
}

func TestSupervisorFatalErrorStops(t *testing.T) {
	bug := errors.New("deterministic bug")
	l := &fakeLauncher{attempts: []*fakeAttempt{{err: bug}}}
	err := New(l, fastOptions()).Run(4, false)
	if !errors.Is(err, bug) {
		t.Fatalf("err = %v, want the fatal cause", err)
	}
	if n := len(l.launched()); n != 1 {
		t.Fatalf("fatal error relaunched %d times", n)
	}
}

func TestSupervisorBudgetExhaustion(t *testing.T) {
	// MaxRestarts 3 and DegradeAfter large: 4 attempts total, all failing.
	l := &fakeLauncher{attempts: []*fakeAttempt{
		{err: errTransient}, {err: errTransient}, {err: errTransient}, {err: errTransient},
	}}
	opt := fastOptions()
	opt.Policy.DegradeAfter = 100
	err := New(l, opt).Run(4, false)
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *ExhaustedError", err)
	}
	if ex.Restarts != 3 || !errors.Is(ex, errTransient) {
		t.Fatalf("exhausted = %+v", ex)
	}
	if n := len(l.launched()); n != 4 {
		t.Fatalf("launches = %d, want 4", n)
	}
}

func TestSupervisorDegradesThenHitsFloor(t *testing.T) {
	fails := make([]*fakeAttempt, 6)
	for i := range fails {
		fails[i] = &fakeAttempt{err: errTransient}
	}
	l := &fakeLauncher{attempts: fails}
	opt := fastOptions()
	opt.Policy.MaxRestarts = 100
	opt.Policy.DegradeAfter = 2
	opt.Policy.MinRanks = 3
	err := New(l, opt).Run(4, false)
	var mr *MinRanksError
	if !errors.As(err, &mr) {
		t.Fatalf("err = %v, want *MinRanksError", err)
	}
	if mr.Ranks != 3 || mr.MinRanks != 3 {
		t.Fatalf("floor diagnostics = %+v", mr)
	}
	specs := l.launched()
	// 2 failures at 4 ranks, degrade, 2 failures at 3 ranks, floor hit.
	if len(specs) != 4 {
		t.Fatalf("launches = %d, want 4 (%+v)", len(specs), specs)
	}
	if specs[2].Ranks != 3 || specs[3].Ranks != 3 {
		t.Fatalf("degraded specs = %+v", specs)
	}
}

func TestSupervisorKillsHungWorldAndRetries(t *testing.T) {
	collateral := errors.New("torn down") // NOT retryable by the classifier
	hung := &fakeAttempt{release: make(chan struct{}), killErr: collateral}
	l := &fakeLauncher{attempts: []*fakeAttempt{hung, {}}}
	opt := fastOptions()
	// Tiny bootstrap window (24ms): the hung attempt never beacons, so the
	// seed observations age out and the detector condemns every rank.
	opt.Hang = time.Millisecond
	if err := New(l, opt).Run(2, false); err != nil {
		t.Fatal(err)
	}
	if !hung.killed.Load() {
		t.Fatal("hung attempt was never killed")
	}
	if n := len(l.launched()); n != 2 {
		t.Fatalf("launches = %d, want 2 (hang must be retryable despite the classifier)", n)
	}
}

func TestSupervisorBeaconsKeepSlowWorldAlive(t *testing.T) {
	slow := &fakeAttempt{release: make(chan struct{})}
	l := &fakeLauncher{attempts: []*fakeAttempt{slow}}
	opt := fastOptions()
	// Floor 1.25ms, bootstrap cap 30ms, poll 1ms: a world whose beacons
	// never reached the detector would be condemned within 30ms, and the
	// learned window (~15ms for beacons 5ms apart), not the floor, is the
	// one in force.
	opt.Hang = 1250 * time.Microsecond
	sup := New(l, opt)

	done := make(chan error, 1)
	go func() { done <- sup.Run(1, false) }()
	// Beacon steadily for 10 bootstrap windows, then finish cleanly.
	for i := 0; i < 60; i++ {
		time.Sleep(5 * time.Millisecond)
		l.mu.Lock()
		if len(l.sinks) > 0 {
			l.sinks[0](Beacon{Rank: 0, Kind: KindIteration, Iteration: i})
		}
		l.mu.Unlock()
	}
	close(slow.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if slow.killed.Load() {
		t.Fatal("beaconing world was killed as hung")
	}
	if n := len(l.launched()); n != 1 {
		t.Fatalf("launches = %d, want 1", n)
	}
}

func TestSupervisorInterruptStopsRestarting(t *testing.T) {
	// The attempt fails retryably when interrupted; without the interrupt
	// the supervisor would relaunch.
	att := &fakeAttempt{release: make(chan struct{}), err: errTransient}
	l := &fakeLauncher{attempts: []*fakeAttempt{att}}
	opt := fastOptions()
	opt.HasCheckpoint = func() bool { return true }
	sup := New(l, opt)

	done := make(chan error, 1)
	go func() { done <- sup.Run(2, false) }()
	for {
		l.mu.Lock()
		n := len(l.specs)
		l.mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	sup.Interrupt()
	err := <-done
	if !errors.Is(err, errTransient) {
		t.Fatalf("err = %v, want the attempt's retryable error surfaced", err)
	}
	if !att.interrupted.Load() {
		t.Fatal("attempt never received the interrupt")
	}
	if n := len(l.launched()); n != 1 {
		t.Fatalf("interrupted run relaunched %d times", n)
	}
}

func TestSupervisorAbortKillsAndStopsRestarting(t *testing.T) {
	// The attempt would fail retryably when killed; without the abort the
	// supervisor would relaunch it from the checkpoint.
	att := &fakeAttempt{release: make(chan struct{}), killErr: errTransient}
	l := &fakeLauncher{attempts: []*fakeAttempt{att}}
	opt := fastOptions()
	opt.HasCheckpoint = func() bool { return true }
	sup := New(l, opt)

	done := make(chan error, 1)
	go func() { done <- sup.Run(2, false) }()
	for {
		l.mu.Lock()
		n := len(l.specs)
		l.mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	sup.Abort()
	err := <-done
	if !errors.Is(err, errTransient) {
		t.Fatalf("err = %v, want the killed attempt's error surfaced", err)
	}
	if !att.killed.Load() {
		t.Fatal("abort never killed the attempt")
	}
	if att.interrupted.Load() {
		t.Fatal("abort must kill, not gracefully interrupt")
	}
	if n := len(l.launched()); n != 1 {
		t.Fatalf("aborted run relaunched %d times", n)
	}
}

func TestSupervisorAbortBeforeLaunchKillsOnArrival(t *testing.T) {
	// Abort lands before the (slow) launch completes: the supervisor must
	// re-deliver the kill to the attempt it was handed.
	att := &fakeAttempt{release: make(chan struct{}), killErr: errTransient}
	launchStarted := make(chan struct{})
	launchGate := make(chan struct{})
	l := &gatedLauncher{att: att, started: launchStarted, gate: launchGate}
	sup := New(l, fastOptions())

	done := make(chan error, 1)
	go func() { done <- sup.Run(2, false) }()
	<-launchStarted
	sup.Abort() // current attempt is still nil; only the flag is set
	close(launchGate)
	if err := <-done; !errors.Is(err, errTransient) {
		t.Fatalf("err = %v, want the killed attempt's error", err)
	}
	if !att.killed.Load() {
		t.Fatal("abort flag set before launch was not re-delivered as a kill")
	}
}

// gatedLauncher blocks Launch until its gate opens, to race supervisor
// signals against an in-flight launch.
type gatedLauncher struct {
	att     *fakeAttempt
	started chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (l *gatedLauncher) Launch(spec LaunchSpec, beacons func(Beacon)) (Attempt, error) {
	l.once.Do(func() { close(l.started) })
	<-l.gate
	return l.att, nil
}

func TestSupervisorOnAttemptObservesEveryLaunch(t *testing.T) {
	l := &fakeLauncher{attempts: []*fakeAttempt{{err: errTransient}, {err: errTransient}, {}}}
	opt := fastOptions()
	opt.Policy.DegradeAfter = 2
	opt.Policy.MinRanks = 1
	opt.HasCheckpoint = func() bool { return true }
	var mu sync.Mutex
	var seen []LaunchSpec
	opt.OnAttempt = func(spec LaunchSpec) {
		mu.Lock()
		seen = append(seen, spec)
		mu.Unlock()
	}
	if err := New(l, opt).Run(3, false); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 3 {
		t.Fatalf("OnAttempt saw %d launches, want 3 (%+v)", len(seen), seen)
	}
	if seen[0].Ranks != 3 || seen[1].Ranks != 3 {
		t.Fatalf("first two attempts should run at the admitted size: %+v", seen)
	}
	// Two consecutive failures at 3 ranks degrade the third attempt — the
	// budget observer must see the shrunken world.
	if seen[2].Ranks != 2 || !seen[2].Resume {
		t.Fatalf("degraded attempt not observed: %+v", seen[2])
	}
}
