// Command paperbench regenerates every table and figure of the paper's
// evaluation section on synthetic analogues of its datasets.
//
// Usage:
//
//	paperbench -exp all                 # run the full suite (text output)
//	paperbench -exp table1              # one experiment
//	paperbench -exp fig3 -graphs mesh-channel,rmat-orkut -ranks 1,2,4
//	paperbench -exp all -markdown       # GitHub-markdown output
//	paperbench -scale medium            # 4x larger inputs
//	paperbench -exp bench -json         # the deterministic regression baseline
//	paperbench -exp bench -check BENCH_paperbench.json
//
// Experiments: table1 table2 table3 table4 table5 table6 table7 fig2 fig3
// fig4 fig5 fig6 profile bench all. ("all" covers the paper tables and
// figures; "bench" records or replays BENCH_paperbench.json, which holds no
// timing — time is measured by benchmark/ alone.)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"distlouvain/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (table1..table7, fig2..fig6, profile, bench, all)")
		scale    = flag.String("scale", "small", "input scale: small or medium")
		ranks    = flag.String("ranks", "1,2,4,8", "rank counts for scaling experiments")
		graphs   = flag.String("graphs", "", "comma-separated workload subset for fig3 and bench (default: all)")
		threads  = flag.Int("threads", 1, "worker threads per rank / shared-memory team size")
		p        = flag.Int("p", 4, "rank count for fixed-p experiments (table4, table7, fig5/6, profile, bench)")
		markdown = flag.Bool("markdown", false, "emit GitHub markdown instead of aligned text")
		jsonOut  = flag.Bool("json", false, "bench: emit the report as JSON on stdout")
		checkF   = flag.String("check", "", "bench: compare exactly against a recorded baseline file; non-zero exit on any difference")
	)
	flag.Parse()

	var s experiments.Scale
	switch *scale {
	case "small":
		s = experiments.Small
	case "medium":
		s = experiments.Medium
	default:
		fatalf("unknown scale %q (want small or medium)", *scale)
	}

	rankList, err := parseInts(*ranks)
	if err != nil {
		fatalf("bad -ranks: %v", err)
	}

	emit := func(t *experiments.Table) {
		if *markdown {
			fmt.Print(t.Markdown())
		} else {
			fmt.Println(t.Text())
		}
	}

	run := func(id string) {
		start := time.Now()
		switch id {
		case "table1":
			t, err := experiments.Table1(s, *threads)
			check(err)
			emit(t)
		case "table2":
			t, err := experiments.Table2(s)
			check(err)
			emit(t)
		case "table3":
			t, err := experiments.Table3(s)
			check(err)
			emit(t)
		case "table4":
			t, err := experiments.Table4(s, *p)
			check(err)
			emit(t)
		case "table5":
			t, _, err := experiments.Table5(s)
			check(err)
			emit(t)
		case "table6":
			t, err := experiments.Table6(s)
			check(err)
			emit(t)
		case "table7":
			t, err := experiments.Table7(s, *p)
			check(err)
			emit(t)
		case "fig2":
			emit(experiments.Fig2())
		case "fig3":
			ws := selectGraphs(experiments.TestGraphs(s), *graphs)
			t, err := experiments.Fig3(s, ws, rankList)
			check(err)
			emit(t)
		case "fig4":
			_, points, err := experiments.Table5(s)
			check(err)
			emit(experiments.Fig4(points))
		case "fig5", "fig6":
			t5, t6, err := experiments.Fig5and6(s, *p)
			check(err)
			if id == "fig5" {
				emit(t5)
			} else {
				emit(t6)
			}
		case "profile":
			t, err := experiments.Profile(s, *p)
			check(err)
			emit(t)
		case "bench":
			ws := selectGraphs(experiments.TestGraphs(s), *graphs)
			rep, err := experiments.Bench(s, *p, *threads, ws)
			check(err)
			if *checkF != "" {
				check(experiments.CheckBench(rep, *checkF))
				fmt.Fprintf(os.Stderr, "[bench equals %s]\n", *checkF)
			}
			if *jsonOut {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				check(enc.Encode(rep))
			} else {
				emit(experiments.BenchTable(rep))
			}
		default:
			fatalf("unknown experiment %q", id)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %.1fs]\n", id, time.Since(start).Seconds())
	}

	if *exp == "all" {
		for _, id := range []string{"table1", "table2", "table3", "table4", "table5", "table6", "table7",
			"fig2", "fig3", "fig4", "fig5", "fig6", "profile"} {
			run(id)
		}
		return
	}
	run(*exp)
}

// selectGraphs narrows ws to the comma-separated names, in the order given;
// an empty list keeps them all.
func selectGraphs(ws []experiments.Workload, names string) []experiments.Workload {
	if names == "" {
		return ws
	}
	var subset []experiments.Workload
	for _, name := range strings.Split(names, ",") {
		w, err := experiments.FindGraph(ws, strings.TrimSpace(name))
		check(err)
		subset = append(subset, w)
	}
	return subset
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("rank count %d must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "paperbench: "+format+"\n", args...)
	os.Exit(1)
}
