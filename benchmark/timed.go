package main

import (
	"fmt"
	"runtime"
	"time"
)

// options are the settings one benchmark invocation runs under.
type options struct {
	seed    uint64
	seconds float64 // measuring window of the timed pass
	reps    int     // > 0 fixes the repetition count instead
	quick   bool
	outDir  string // trace files
	workDir string // scratch: graph files, job dirs, checkpoints; removed at exit
}

// maxReps caps the repetitions of the timed pass however fast the runs are;
// the floor is the workload's own (workload.minReps).
const maxReps = 7

// moreReps reports whether the timed pass should run another repetition.
func (o *options) moreReps(w workload, done int, measured time.Duration) bool {
	switch {
	case o.reps > 0:
		return done < o.reps
	case o.quick:
		return done < 1
	case done < w.minReps:
		return true
	}
	return done < maxReps && measured.Seconds() < o.seconds
}

// repeatSetup runs a workload's input set-up several times (once with
// -quick), so that setup_s can carry a median instead of one sample, and
// returns the last result with the median seconds.
func repeatSetup[T any](opt *options, setup func() (T, error)) (T, float64, error) {
	rounds := 3
	if opt.quick {
		rounds = 1
	}
	var last T
	var secs []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		made, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = made
	}
	return last, median(secs), nil
}

// outcome is everything one pass over one workload produced.
type outcome struct {
	Workload  string
	Attempted int // runs, or HTTP jobs
	Failed    int // of those: errored, refused, or returned a wrong answer
	Samples   samples
	Problems  []string          // failed correctness and vacuity checks
	Notes     map[string]string // per metric: what the number is, when the name cannot say
	TraceFile string
	Self      map[string]time.Duration // harness span self times (traced pass)
}

func newOutcome(workload string) *outcome {
	return &outcome{Workload: workload, Samples: samples{}, Notes: map[string]string{}}
}

func (o *outcome) correct() bool { return len(o.Problems) == 0 && o.Failed == 0 }

func (o *outcome) problem(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// attempt counts one operation and, when it failed, why.
func (o *outcome) attempt(err error) bool {
	o.Attempted++
	if err != nil {
		o.Failed++
		o.problem("%v", err)
		return false
	}
	return true
}

// minTimed is the shortest total a timed section may report. Below it the
// clock's resolution and call overhead are the measurement, so every timed
// call is repeated until the total reaches it (perCall), and a loop whose
// count is fixed in advance is checked against it.
const minTimed = time.Millisecond

// perCall times fn, calling it at least n times and until the total reaches
// minTimed, and returns the time per call.
func perCall(n int, fn func()) time.Duration {
	start := time.Now()
	for done := 1; ; done++ {
		fn()
		if el := time.Since(start); done >= n && el >= minTimed {
			return el / time.Duration(done)
		}
	}
}

// allocMiB runs fn and returns how much it allocated, in MiB, with a
// collection first so that every repetition starts from the same heap.
func allocMiB(fn func()) float64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// mallocs runs fn and returns how many heap objects it allocated.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// timedDirect is the timed pass of a direct workload: set-up, one warm-up
// run, then repetitions of the job with nothing attached.
func timedDirect(w workload, opt *options) *outcome {
	o := newOutcome(w.Name)

	in, genSecs, err := repeatSetup(opt, func() (*input, error) { return w.make(opt.seed, opt.quick) })
	if err != nil {
		o.problem("generate: %v", err)
		return o
	}

	// The warm-up always runs in process. For band-tcp that makes it the
	// reference as well: the TCP repetitions must retrace it bit for bit,
	// which is the check that the transports are interchangeable.
	t0 := time.Now()
	warm, err := runJob(in, jobOpts{})
	warmTime := time.Since(t0)
	if err != nil {
		o.problem("warm-up run: %v", err)
		return o
	}
	if err := verifyJob(in, warm); err != nil {
		o.problem("warm-up run: %v", err)
	}
	o.Samples.add("setup_s", genSecs+warmTime.Seconds())

	var measured time.Duration
	done := 0
	for opt.moreReps(w, o.Attempted, measured) {
		var out *jobOut
		var err error
		mib := allocMiB(func() { out, err = runJob(in, jobOpts{tcp: w.tcp}) })
		if err == nil {
			err = verifyJob(in, out)
		}
		if err == nil {
			err = sameTrajectory(warm.root(), out.root())
		}
		if err == nil && out.wall < minTimed {
			err = fmt.Errorf("vacuous timing: a whole run took %v", out.wall)
		}
		if !o.attempt(err) {
			continue
		}
		done++
		measured += out.wall
		o.Samples.add("wall_s", out.wall.Seconds())
		o.Samples.add("alloc_mb", mib)
	}
	if done > 0 {
		o.Samples.add("modularity", warm.root().Modularity)
	}
	return o
}
