// Command benchmark is the repository's performance benchmark: time to
// solution, per-layer cost and five named workloads, measured from outside
// the layers through their public functions. BENCHMARK.json at the repository
// root names its metrics, workloads and regression bounds; README.md in this
// directory explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// ranks × threads of every measured world, and the processor budget the
// harness pins itself to so that load never exceeds the machine it was
// calibrated on.
const nproc = 2

// runSeconds is the measuring window of the timed pass, which BENCHMARK.json
// tells the driver to pass as --seconds: long enough for the five repetitions
// every workload makes regardless, short enough that the driver's hundred-odd
// invocations fit its hour on a host a third slower than this one.
const runSeconds = 12

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run: all, or one of the names in BENCHMARK.json")
		seed         = flag.Uint64("seed", 1, "seed of every generator and of the service request order")
		seconds      = flag.Float64("seconds", runSeconds, "measuring window of the timed pass (at least 5 repetitions run regardless, at most 7)")
		reps         = flag.Int("reps", 0, "fixed number of timed repetitions, overriding -seconds")
		trace        = flag.String("trace", "both", "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics; both")
		out          = flag.String("out", filepath.Join(".bench_build", "out"), "directory for trace-event files and scratch data")
		jsonPath     = flag.String("json", "", "also write the full report (medians, quartiles, counts) to this file")
		compare      = flag.Bool("compare", false, "compare two -json reports: -compare parent.json change.json")
		quick        = flag.Bool("quick", false, "small inputs, one repetition: exercises every workload and check in seconds")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare parent.json change.json")
			return 2
		}
		return runCompare(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || (*trace != "0" && *trace != "1" && *trace != "both") {
		flag.Usage()
		return 2
	}
	selected := workloads
	if *workloadName != "all" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		selected = []workload{w}
	}

	runtime.GOMAXPROCS(nproc)
	opt := &options{seed: *seed, seconds: *seconds, reps: *reps, quick: *quick, outDir: *out}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	work, err := os.MkdirTemp(opt.outDir, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	opt.workDir = work
	defer os.RemoveAll(work)

	rep := runWorkloads(selected, opt, *trace)
	ok := true
	for _, w := range selected {
		ok = ok && rep.Workloads[w.Name].Correct
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			ok = false
		}
	}
	if len(selected) == 1 {
		// The contract's result line: last on standard output.
		line, err := json.Marshal(rep.Workloads[selected[0].Name].line())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !ok {
		return 1
	}
	return 0
}

// runWorkloads makes the requested passes over each workload, printing each
// workload's table as it completes.
func runWorkloads(selected []workload, opt *options, trace string) *report {
	rep := newReport(opt)
	for _, w := range selected {
		timed, traced := timedDirect, tracedDirect
		if w.make == nil {
			timed, traced = timedService, tracedService
		}
		var wr *workloadReport
		if trace != "1" {
			wr = rep.merge(timed(w, opt), kindEndToEnd)
		}
		if trace != "0" {
			wr = rep.merge(traced(w, opt), kindPerLayer)
		}
		wr.print(os.Stdout, w.Name)
	}
	return rep
}

func runCompare(pathA, pathB string) int {
	a, err := readReport(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if !compareReports(os.Stdout, a, b) {
		return 1
	}
	return 0
}
