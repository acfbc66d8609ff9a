package supervisor

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// transientError states its own verdict, so supervisor.Retryable retries
// the scripted failures it marks.
type transientError struct{}

func (transientError) Error() string   { return "transient world failure" }
func (transientError) Retryable() bool { return true }

var errTransient error = transientError{}

// fakeAttempt is a scripted Attempt for supervision-loop tests.
type fakeAttempt struct {
	err         error
	release     chan struct{} // Wait blocks until closed; nil returns at once
	releaseOnce sync.Once
	killed      atomic.Bool
	interrupted atomic.Bool
	killErr     error // error to report when killed mid-wait
}

// open lets Wait return; safe to call any number of times, from the test
// and from Kill or Interrupt alike.
func (a *fakeAttempt) open() {
	if a.release != nil {
		a.releaseOnce.Do(func() { close(a.release) })
	}
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
	a.open()
}

func (a *fakeAttempt) Interrupt() {
	a.interrupted.Store(true)
	a.open()
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
		Policy: Policy{MaxRestarts: 3, BaseBackoff: time.Millisecond, MinRanks: 1},
		Hang:   time.Hour,
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
	// MaxRestarts 3: 4 attempts total, all failing. Two failures at 4 ranks
	// degrade the world to 3, where the budget runs out before the floor.
	l := &fakeLauncher{attempts: []*fakeAttempt{
		{err: errTransient}, {err: errTransient}, {err: errTransient}, {err: errTransient},
	}}
	err := New(l, fastOptions()).Run(4, false)
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want *ExhaustedError", err)
	}
	if ex.Restarts != 3 || !errors.Is(ex, errTransient) {
		t.Fatalf("exhausted = %+v", ex)
	}
	var ranks []int
	for _, spec := range l.launched() {
		ranks = append(ranks, spec.Ranks)
	}
	if !slices.Equal(ranks, []int{4, 4, 3, 3}) {
		t.Fatalf("launched rank counts = %v, want [4 4 3 3]", ranks)
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
	collateral := errors.New("torn down") // NOT retryable by Retryable
	hung := &fakeAttempt{release: make(chan struct{}), killErr: collateral}
	l := &fakeLauncher{attempts: []*fakeAttempt{hung, {}}}
	opt := fastOptions()
	// Tiny bootstrap window (24ms): the hung attempt never beacons, so the
	// seed observations age out and the detector finds the world hung.
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
	slow.open()
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

func TestSupervisorLostBeaconsKeepWorldAlive(t *testing.T) {
	// Beacon delivery is best-effort: rank 1's beacons stop arriving from
	// iteration 5 while ranks 0 and 2 keep beaconing every 5ms. The ranks of
	// a world move in lock-step, so its peers' progress proves rank 1 alive:
	// nothing may be killed. Same timing as the slow-world test above: a
	// ~15ms learned window, ~10 bootstrap windows of beacons.
	alive := &fakeAttempt{release: make(chan struct{})}
	l := &fakeLauncher{attempts: []*fakeAttempt{alive}}
	opt := fastOptions()
	opt.Hang = 1250 * time.Microsecond
	sup := New(l, opt)

	done := make(chan error, 1)
	go func() { done <- sup.Run(3, false) }()
	for i := 0; i < 60; i++ {
		time.Sleep(5 * time.Millisecond)
		l.mu.Lock()
		if len(l.sinks) > 0 {
			for r := 0; r < 3; r++ {
				if r != 1 || i < 5 {
					l.sinks[0](Beacon{Rank: r, Kind: KindIteration, Iteration: i})
				}
			}
		}
		l.mu.Unlock()
	}
	alive.open() // a hang kill may already have released it
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if alive.killed.Load() {
		t.Fatal("world whose peers kept beaconing was killed as hung")
	}
	if n := len(l.launched()); n != 1 {
		t.Fatalf("launches = %d, want 1", n)
	}
}

func TestSupervisorSlowStartKeepsWorldAlive(t *testing.T) {
	// Each rank says hello right after launch, then stays silent while it
	// reads its share and builds its graph (or resumes) before its first
	// phase beacon. That start is 10 floors long, inside the 24-floor
	// bootstrap cap, so it must not be taken for a hang.
	start := &fakeAttempt{release: make(chan struct{})}
	l := &fakeLauncher{attempts: []*fakeAttempt{start}}
	opt := fastOptions()
	opt.Hang = 5 * time.Millisecond // cap 120ms
	sup := New(l, opt)

	done := make(chan error, 1)
	go func() { done <- sup.Run(3, false) }()
	beacon := func(kind Kind, i int) {
		l.mu.Lock()
		defer l.mu.Unlock()
		for r := 0; r < 3 && len(l.sinks) > 0; r++ {
			l.sinks[0](Beacon{Rank: r, Kind: kind, Iteration: i})
		}
	}
	for len(l.launched()) == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	beacon(KindHello, 0)
	time.Sleep(10 * opt.Hang)
	for i := 0; i < 10; i++ {
		beacon(KindIteration, i)
		time.Sleep(5 * time.Millisecond)
	}
	start.open() // a hang kill may already have released it
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if start.killed.Load() {
		t.Fatal("world killed as hung during its slow start")
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
