package gio

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"distlouvain/internal/graph"
)

// ReadEdgeListText parses a whitespace-separated edge list: one "u v [w]"
// per line, '#' and '%' starting comment lines (SNAP and Matrix-Market
// conventions). Vertex IDs may be arbitrary non-negative integers; the
// returned vertex count is max ID + 1. Missing weights default to 1.
func ReadEdgeListText(path string) (int64, []graph.RawEdge, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []graph.RawEdge
	var maxID int64 = -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, nil, fmt.Errorf("gio: %s:%d: want 'u v [w]', got %q", path, lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, nil, fmt.Errorf("gio: %s:%d: bad source vertex: %w", path, lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, nil, fmt.Errorf("gio: %s:%d: bad target vertex: %w", path, lineNo, err)
		}
		if u < 0 || v < 0 {
			return 0, nil, fmt.Errorf("gio: %s:%d: negative vertex id", path, lineNo)
		}
		if u == math.MaxInt64 || v == math.MaxInt64 {
			// The vertex count is maxID+1; MaxInt64 would overflow it.
			return 0, nil, fmt.Errorf("gio: %s:%d: vertex id too large", path, lineNo)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return 0, nil, fmt.Errorf("gio: %s:%d: bad weight: %w", path, lineNo, err)
			}
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, graph.RawEdge{U: u, V: v, W: w})
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	return maxID + 1, edges, nil
}

// WriteEdgeListText writes "u v w" lines.
func WriteEdgeListText(path string, edges []graph.RawEdge) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	for _, e := range edges {
		if _, err := fmt.Fprintf(w, "%d %d %g\n", e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return w.Flush()
}

// ReadGroundTruth parses a community-membership file: line i (0-based,
// comments skipped) holds the community ID of vertex i, or lines may be
// "vertex community" pairs. The single-column and two-column forms are
// auto-detected from the first data line.
func ReadGroundTruth(path string, n int64) ([]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	comm := make([]int64, n)
	for i := range comm {
		comm[i] = -1
	}
	next := int64(0)
	pairForm := false
	first := true
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if first {
			pairForm = len(fields) >= 2
			first = false
		}
		if pairForm {
			if len(fields) < 2 {
				return nil, fmt.Errorf("gio: %s:%d: want 'vertex community'", path, lineNo)
			}
			v, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("gio: %s:%d: %w", path, lineNo, err)
			}
			c, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("gio: %s:%d: %w", path, lineNo, err)
			}
			if v < 0 || v >= n {
				return nil, fmt.Errorf("gio: %s:%d: vertex %d out of range", path, lineNo, v)
			}
			comm[v] = c
		} else {
			if next >= n {
				return nil, fmt.Errorf("gio: %s: more lines than vertices (%d)", path, n)
			}
			c, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("gio: %s:%d: %w", path, lineNo, err)
			}
			comm[next] = c
			next++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for v, c := range comm {
		if c < 0 {
			return nil, fmt.Errorf("gio: %s: vertex %d has no community assignment", path, v)
		}
	}
	return comm, nil
}

// AppendGroundTruth appends one community ID per line, vertex order, to buf.
func AppendGroundTruth(buf []byte, comm []int64) []byte {
	for _, c := range comm {
		buf = append(strconv.AppendInt(buf, c, 10), '\n')
	}
	return buf
}

// WriteGroundTruth writes one community ID per line, vertex order.
func WriteGroundTruth(path string, comm []int64) error {
	return os.WriteFile(path, AppendGroundTruth(nil, comm), 0o644)
}
