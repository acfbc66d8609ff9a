package supervisor

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// LaunchSpec describes one attempt the supervisor asks a Launcher to start.
type LaunchSpec struct {
	Ranks  int  // world size of this attempt (may shrink across attempts)
	Resume bool // continue from the latest committed checkpoint
	// Attempt counts attempts from 0. Launchers hand it to their Inject
	// hook, so a fault can be scoped to the first attempt.
	Attempt int
}

// Fault is what an injection hook makes of the rank whose beacon it was
// shown. Each launcher carries it out in its own medium.
type Fault int

// Faults an Inject hook can return.
const (
	FaultNone Fault = iota
	FaultKill       // the rank crashes: its transport dies, or its process is SIGKILLed
	FaultHang       // the rank freezes beacon-silent: its progress hook blocks, or its process is SIGSTOPped
)

// Inject is a launcher's failure-injection hook. It is consulted on every
// beacon a rank of the given attempt emits, before the beacon is delivered,
// and the fault it returns strikes that rank — so a failure is written in
// run progress ("rank R reaches phase P") and fires by the same rule in
// every world.
type Inject func(attempt int, b Beacon) Fault

// Attempt is one running world under supervision.
type Attempt interface {
	// Wait blocks until every rank has terminated and returns nil on
	// success or the most meaningful failure (root cause preferred over
	// teardown collateral).
	Wait() error
	// Kill hard-stops every rank (SIGKILL for processes, closing the
	// world for goroutine ranks). Wait returns afterwards. Idempotent.
	Kill()
	// Interrupt requests a graceful stop: ranks checkpoint at the next
	// phase boundary and exit retryable. Idempotent.
	Interrupt()
}

// Launcher starts attempts of a world. Implementations exist for in-process
// goroutine worlds (InprocLauncher) and for rank processes spawned through
// a coordinator and host agents (cmd/dlouvain); tests substitute scripted
// fakes. The beacons sink must receive every rank beacon the
// attempt produces and is safe for concurrent use; the launcher must not
// call it after Wait has returned.
type Launcher interface {
	Launch(spec LaunchSpec, beacons func(Beacon)) (Attempt, error)
}

// Options tunes a Supervisor beyond its restart Policy.
type Options struct {
	Policy Policy
	// Hang is the one number of hang detection: no world is found hung
	// before every live rank has been beacon-silent for Hang, the world's
	// learned window is capped at 24·Hang (also its window before it has
	// beaconed enough to model), and the loop consults the detector every
	// Hang/20, at least every millisecond. ≤0 selects 5s: a 5s floor, a 2m
	// cap, a 250ms poll.
	Hang time.Duration
	// HasCheckpoint reports whether a committed checkpoint exists; it
	// decides whether a relaunch resumes or restarts from scratch. nil
	// means restart from scratch.
	HasCheckpoint func() bool
	// Logf receives supervision progress lines; nil discards them.
	Logf func(format string, args ...any)
	// OnBeacon observes every beacon after the detector has (verbose
	// progress displays); nil disables.
	OnBeacon func(Beacon)
	// PostMortem, when set, is asked for each live rank's last recorded
	// activity (e.g. its tracer's span tail) right before a hang kill; each
	// returned line is logged. In-process launchers that hold the ranks'
	// tracers wire this up; nil disables.
	PostMortem func(rank int) []string
	// OnRestart observes every relaunch decision before its backoff sleep:
	// restarts consumed so far, the next attempt's rank count, whether it
	// will resume from a checkpoint, and the failure that caused it. nil
	// disables. Metrics registries use it to mark generation boundaries.
	OnRestart func(restarts, ranks int, resume bool, cause error)
	// OnAttempt observes every attempt right before its launch, including
	// the first. Schedulers that admit supervised worlds against a shared
	// rank budget use it to track the ACTUAL world size of each attempt —
	// degradation shrinks it below the admitted size, and the freed ranks
	// can be re-granted elsewhere. nil disables.
	OnAttempt func(spec LaunchSpec)
}

// HangError reports a world the supervisor killed because its beacons went
// silent: the window no live rank beaconed within, every live rank
// longest-silent first, and what the teardown surfaced. It is retryable
// whatever that was: a world the supervisor killed is worth relaunching.
type HangError struct {
	Window   time.Duration
	Suspects []Suspect
	Cause    error // world error observed after the kill, if any
}

func (e *HangError) Error() string {
	parts := make([]string, len(e.Suspects))
	for i, s := range e.Suspects {
		parts[i] = s.String()
	}
	msg := fmt.Sprintf("supervisor: world hung (window %v): %s", e.Window.Round(time.Millisecond), strings.Join(parts, "; "))
	if e.Cause != nil {
		msg += fmt.Sprintf(" (world reported after kill: %v)", e.Cause)
	}
	return msg
}

func (e *HangError) Unwrap() error   { return e.Cause }
func (e *HangError) Retryable() bool { return true }

// ExhaustedError reports a run that failed more times than the restart
// budget allows. It is fatal: an operator must look at the recurring cause.
type ExhaustedError struct {
	Restarts int   // restarts consumed (== Policy.MaxRestarts)
	Last     error // the failure that broke the budget
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("supervisor: restart budget exhausted (%d restarts used); last failure: %v", e.Restarts, e.Last)
}

func (e *ExhaustedError) Unwrap() error { return e.Last }

// MinRanksError reports a world that kept failing until degrading further
// would violate the configured rank floor. It is fatal.
type MinRanksError struct {
	Ranks    int   // rank count that kept failing
	MinRanks int   // the floor that blocked further degradation
	Last     error // the failure that forced the decision
}

func (e *MinRanksError) Error() string {
	return fmt.Sprintf("supervisor: world keeps failing at %d ranks and degrading further would violate the %d-rank floor; last failure: %v", e.Ranks, e.MinRanks, e.Last)
}

func (e *MinRanksError) Unwrap() error { return e.Last }

// Supervisor drives a world of ranks to completion without operator
// intervention: launch, watch beacons, kill hung worlds, relaunch retryable
// failures from the latest checkpoint with backoff, degrade the rank count
// when a size repeatedly fails, and give up with a precise diagnosis when
// the budget runs out.
type Supervisor struct {
	launcher Launcher
	opt      Options
	det      *Detector

	mu       sync.Mutex
	cur      Attempt
	gen      int // attempt generation; stale beacon sinks are ignored
	stopping bool
	aborting bool           // hard abort: kill, don't wait for a checkpoint
	last     map[int]Beacon // latest beacon per rank, current attempt only
}

// New builds a supervisor over the given launcher.
func New(l Launcher, opt Options) *Supervisor {
	opt.Policy.fill()
	if opt.Hang <= 0 {
		opt.Hang = 5 * time.Second
	}
	return &Supervisor{launcher: l, opt: opt, det: NewDetector(opt.Hang)}
}

// Interrupt requests a graceful shutdown of the supervised run: the current
// attempt is asked to checkpoint and exit, and no further restarts happen.
// Run then returns the attempt's (retryable) error so the caller can report
// a resumable exit.
func (s *Supervisor) Interrupt() {
	s.mu.Lock()
	s.stopping = true
	att := s.cur
	s.mu.Unlock()
	s.logf("supervisor: interrupt requested; stopping after the current attempt")
	if att != nil {
		att.Interrupt()
	}
}

// Abort hard-stops the supervised run: the current attempt is killed without
// waiting for a phase boundary and no further restarts happen. Run returns
// the killed attempt's error. Unlike Interrupt, Abort does not leave a fresh
// checkpoint — whatever the run last committed is what a later resume gets.
// Job schedulers use it to reclaim a world's ranks immediately (a queued job
// is waiting for them); operators cancelling a run they still want to finish
// later should prefer Interrupt.
func (s *Supervisor) Abort() {
	s.mu.Lock()
	s.stopping = true
	s.aborting = true
	att := s.cur
	s.mu.Unlock()
	s.logf("supervisor: abort requested; killing the current attempt")
	if att != nil {
		att.Kill()
	}
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// Run supervises the world to completion, starting at `ranks` ranks, with
// the first attempt resuming iff resume is set. It returns nil once an
// attempt completes, the attempt's error when it is fatal or an interrupt
// stopped the run, an *ExhaustedError when the restart budget runs out, or
// a *MinRanksError when degradation hits the rank floor.
func (s *Supervisor) Run(ranks int, resume bool) error {
	pol := s.opt.Policy
	restarts := 0 // total relaunches consumed (budget)
	consec := 0   // consecutive failures at the current rank count
	for {
		s.det.Reset()
		spec := LaunchSpec{Ranks: ranks, Resume: resume, Attempt: restarts + 0}
		s.mu.Lock()
		s.gen++
		gen := s.gen
		s.last = make(map[int]Beacon, ranks)
		s.mu.Unlock()
		now := time.Now()
		for r := 0; r < ranks; r++ {
			// Bootstrap observation: a world that never beacons at all is
			// hung once the bootstrap window expires.
			s.det.Observe(r, now)
		}
		s.logf("supervisor: attempt %d: launching %d ranks (resume=%v)", spec.Attempt, ranks, resume)
		if s.opt.OnAttempt != nil {
			s.opt.OnAttempt(spec)
		}
		att, err := s.launcher.Launch(spec, func(b Beacon) { s.observe(gen, b) })
		var aerr error
		if err != nil {
			aerr = fmt.Errorf("supervisor: launch: %w", err)
		} else {
			s.mu.Lock()
			s.cur = att
			stopping, aborting := s.stopping, s.aborting
			s.mu.Unlock()
			if aborting {
				att.Kill() // abort raced the launch; re-deliver
			} else if stopping {
				att.Interrupt() // interrupt raced the launch; re-deliver
			}
			aerr = s.monitor(att)
			s.mu.Lock()
			s.cur = nil
			s.mu.Unlock()
		}
		if aerr == nil {
			s.logf("supervisor: world completed after %d restart(s)", restarts)
			return nil
		}
		s.mu.Lock()
		stopping := s.stopping
		s.mu.Unlock()
		if stopping {
			s.logf("supervisor: stopped by interrupt: %v", aerr)
			return aerr
		}
		if !Retryable(aerr) {
			s.logf("supervisor: fatal failure, not restarting: %v", aerr)
			return aerr
		}
		if restarts >= pol.MaxRestarts {
			return &ExhaustedError{Restarts: restarts, Last: aerr}
		}
		restarts++
		consec++
		if consec >= degradeAfter {
			if ranks-1 < pol.MinRanks {
				return &MinRanksError{Ranks: ranks, MinRanks: pol.MinRanks, Last: aerr}
			}
			ranks--
			consec = 0
			s.logf("supervisor: world failed %d times in a row at this size; degrading to %d ranks", degradeAfter, ranks)
		}
		d := pol.Backoff(consec + 1)
		s.logf("supervisor: restart %d/%d in %v (cause: %v)", restarts, pol.MaxRestarts, d.Round(time.Millisecond), aerr)
		resume = s.opt.HasCheckpoint != nil && s.opt.HasCheckpoint()
		if s.opt.OnRestart != nil {
			s.opt.OnRestart(restarts, ranks, resume, aerr)
		}
		time.Sleep(d)
	}
}

// observe feeds one beacon into the failure detector, dropping beacons from
// a previous attempt's world that arrive after its teardown.
func (s *Supervisor) observe(gen int, b Beacon) {
	s.mu.Lock()
	if gen != s.gen {
		s.mu.Unlock()
		return
	}
	s.last[b.Rank] = b
	s.mu.Unlock()
	now := time.Now()
	if b.Kind == KindDone {
		s.det.Done(b.Rank, now)
	} else {
		s.det.Observe(b.Rank, now)
	}
	if s.opt.OnBeacon != nil {
		s.opt.OnBeacon(b)
	}
}

// monitor waits for the attempt while polling the failure detector; a hung
// world is killed and the failure reported as a HangError.
func (s *Supervisor) monitor(att Attempt) error {
	done := make(chan error, 1)
	go func() { done <- att.Wait() }()
	tick := time.NewTicker(max(s.opt.Hang/20, time.Millisecond))
	defer tick.Stop()
	// pendingSince is when the current uninterrupted run of hang verdicts
	// began; zero while the detector is happy.
	var pendingSince time.Time
	for {
		select {
		case err := <-done:
			return err
		case <-tick.C:
			now := time.Now()
			sus, window := s.det.Hung(now)
			if len(sus) == 0 {
				pendingSince = time.Time{}
				continue
			}
			// Confirmation grace: a verdict must hold for half the window
			// before the kill. A world that stalls and recovers (a slow
			// checkpoint fence, an I/O hiccup, a loaded machine) beacons
			// during the grace and is spared; a real hang is killed ~1.5
			// windows after its last beacon instead of 1.
			if pendingSince.IsZero() {
				pendingSince = now
			}
			if now.Sub(pendingSince) < window/2 {
				continue
			}
			s.mu.Lock()
			for i := range sus {
				sus[i].LastSpan = s.last[sus[i].Rank].Span
			}
			s.mu.Unlock()
			he := &HangError{Window: window, Suspects: sus}
			s.logf("%v; killing the world", he)
			// Dump BEFORE Kill: the kill unblocks hung ranks (their blocking
			// points watch the kill channel), and an unblocked rank mutates
			// its tracer on the way out — dumping first reads each rank's
			// activity record while it is still frozen at the death site.
			s.postMortem(sus)
			att.Kill()
			if he.Cause = <-done; he.Cause == nil {
				return nil // the world completed in the kill race; its result stands
			}
			return he
		}
	}
}

// postMortem logs what each live rank of a hung world was last known to be
// doing: its final beacon, plus whatever activity record the launcher can
// produce (for in-process worlds, the rank tracer's span tail).
func (s *Supervisor) postMortem(sus []Suspect) {
	for _, u := range sus {
		s.mu.Lock()
		b, ok := s.last[u.Rank]
		s.mu.Unlock()
		if ok {
			s.logf("supervisor: post-mortem rank %d: last beacon kind=%s phase=%d iter=%d span=%q",
				u.Rank, b.Kind, b.Phase, b.Iteration, b.Span)
		}
		if s.opt.PostMortem != nil {
			for _, line := range s.opt.PostMortem(u.Rank) {
				s.logf("supervisor: post-mortem rank %d: %s", u.Rank, line)
			}
		}
	}
}
