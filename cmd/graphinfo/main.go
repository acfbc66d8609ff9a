// Command graphinfo prints summary statistics of a graph file: vertex and
// edge counts, degree distribution, weight totals, and optionally the
// log2-bucketed degree histogram.
//
// Usage:
//
//	graphinfo g.bin
//	graphinfo -hist -text g.txt
//	graphinfo -metis g.graph
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
)

func main() {
	var (
		text  = flag.Bool("text", false, "input is a text edge list instead of binary")
		metis = flag.Bool("metis", false, "input is in METIS/Chaco format")
		hist  = flag.Bool("hist", false, "print degree histogram")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: graphinfo [-text] [-hist] <graph file>")
		os.Exit(2)
	}
	path := flag.Arg(0)

	var (
		n     int64
		edges []graph.RawEdge
		err   error
	)
	switch {
	case *text:
		n, edges, err = gio.ReadEdgeListText(path)
	case *metis:
		n, edges, err = gio.ReadMETIS(path)
	default:
		n, edges, err = gio.ReadBinary(path)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphinfo: %v\n", err)
		os.Exit(1)
	}
	g, scale, err := graph.FromRawEdgesScaled(n, edges)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphinfo: %v\n", err)
		os.Exit(1)
	}
	st := graph.ComputeStats(g)
	// The weights are those every run sums: the input's, scaled by 2^scale.
	fmt.Printf("%s (weights scaled by 2^%d)\n%s\n", path, scale, st)
	if *hist {
		fmt.Println("degree histogram (log2 buckets):")
		for i, c := range graph.DegreeHistogram(g) {
			if c == 0 {
				continue
			}
			label := bucketLabel(i)
			bar := strings.Repeat("#", barLen(c, st.Vertices))
			fmt.Printf("  %-12s %10d %s\n", label, c, bar)
		}
	}
}

func bucketLabel(i int) string {
	switch i {
	case 0:
		return "0"
	case 1:
		return "1"
	default:
		lo := int64(1) << (i - 1)
		return fmt.Sprintf("[%d,%d)", lo, lo*2)
	}
}

func barLen(count, total int64) int {
	if total == 0 {
		return 0
	}
	l := int(60 * count / total)
	if l == 0 && count > 0 {
		l = 1
	}
	return l
}
