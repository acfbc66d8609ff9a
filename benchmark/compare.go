package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one compared metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // worse than the parent by more than the bound
	verdictUnresolved = "unresolved" // the parent's own spread exceeds the bound
)

// verdict judges a metric of report b against the same metric of its parent
// a. A parent whose interquartile spread is wider than the bound cannot
// resolve a change of the bound's size either way, so that is said first.
func verdict(a, b metricReport) string {
	if a.Median == 0 {
		return verdictUnresolved
	}
	if math.Abs((a.Q3-a.Q1)/a.Median) > a.Bound {
		return verdictUnresolved
	}
	worse := (b.Median - a.Median) / math.Abs(a.Median)
	if a.Better == higher {
		worse = -worse
	}
	if worse > a.Bound {
		return verdictRegressed
	}
	return verdictOK
}

// compareReports prints one row per workload × end-to-end metric of parent a
// against b, then every exact count that differs, and reports whether every
// row is ok and every count identical.
func compareReports(w io.Writer, a, b *report) bool {
	if a.Seed != b.Seed || a.Quick != b.Quick {
		fmt.Fprintf(w, "note: reports differ in seed (%d vs %d) or -quick (%v vs %v): counts are not comparable\n", a.Seed, b.Seed, a.Quick, b.Quick)
	}
	allOK := true
	fmt.Fprintf(w, "%-13s %-11s %-5s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "unit", "a.median", "a.[q1,q3] n", "b.median", "b.[q1,q3] n", "change", "bound", "verdict")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		if !wa.Correct || !wb.Correct {
			fmt.Fprintf(w, "%-13s incorrect run (a correct=%v, b correct=%v)\n", wl.Name, wa.Correct, wb.Correct)
			allOK = false
		}
		for _, d := range endToEnd {
			ma, oka := wa.Metrics[d.Name]
			mb, okb := wb.Metrics[d.Name]
			if !oka || !okb {
				continue
			}
			v := verdict(ma, mb)
			allOK = allOK && v == verdictOK
			fmt.Fprintf(w, "%-13s %-11s %-5s %12s %25s %12s %25s %+7.2f%% %5.0f%%  %s\n",
				wl.Name, d.Name, ma.Unit, num(ma.Median), quartileCell(ma), num(mb.Median), quartileCell(mb),
				100*(mb.Median-ma.Median)/ma.Median, 100*ma.Bound, v)
		}
	}
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range perLayer {
			ma, oka := wa.Metrics[d.Name]
			mb, okb := wb.Metrics[d.Name]
			if d.Exact && oka && okb && ma.Median != mb.Median {
				fmt.Fprintf(w, "%-13s %s# differs: %s vs %s\n", wl.Name, d.Name, num(ma.Median), num(mb.Median))
				allOK = false
			}
		}
	}
	return allOK
}

func quartileCell(m metricReport) string {
	return fmt.Sprintf("[%s,%s] %d", num(m.Q1), num(m.Q3), m.N)
}
