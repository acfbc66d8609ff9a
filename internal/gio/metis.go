package gio

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"distlouvain/internal/graph"
)

// ReadMETIS parses a graph in the METIS/Chaco format used by much of the
// partitioning literature (several of the paper's source graphs circulate
// in it):
//
//	header:  <n> <m> [fmt [ncon]]
//	line i (1-based): the neighbours of vertex i, 1-based, optionally
//	                  preceded by ncon vertex weights (fmt 1x) and each
//	                  followed by an edge weight (fmt x1).
//
// '%' lines are comments. Each undirected edge appears in both endpoint
// lines; the reader keeps one copy (u < v) and verifies the declared edge
// count. Vertex weights are parsed and discarded (Louvain weighs edges).
func ReadMETIS(path string) (int64, []graph.RawEdge, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	nextLine := func() ([]string, bool) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || line[0] == '%' {
				continue
			}
			return strings.Fields(line), true
		}
		return nil, false
	}

	header, ok := nextLine()
	if !ok {
		return 0, nil, fmt.Errorf("gio: %s: missing METIS header", path)
	}
	if len(header) < 2 {
		return 0, nil, fmt.Errorf("gio: %s: METIS header needs '<n> <m>', got %v", path, header)
	}
	n, err := strconv.ParseInt(header[0], 10, 64)
	if err != nil || n < 0 {
		return 0, nil, fmt.Errorf("gio: %s: bad vertex count %q", path, header[0])
	}
	m, err := strconv.ParseInt(header[1], 10, 64)
	if err != nil || m < 0 {
		return 0, nil, fmt.Errorf("gio: %s: bad edge count %q", path, header[1])
	}
	// The fmt field is three binary digits: [vertex sizes][vertex
	// weights][edge weights]. Vertex sizes (the leading digit) belong to
	// the mesh-partitioning use of the format and are not supported here.
	hasVWeights, hasEWeights := false, false
	ncon := int64(0)
	if len(header) >= 3 {
		fmtField := header[2]
		if len(fmtField) > 3 {
			return 0, nil, fmt.Errorf("gio: %s: unsupported METIS fmt %q", path, fmtField)
		}
		for len(fmtField) < 3 {
			fmtField = "0" + fmtField
		}
		for _, ch := range fmtField {
			if ch != '0' && ch != '1' {
				return 0, nil, fmt.Errorf("gio: %s: unsupported METIS fmt %q", path, header[2])
			}
		}
		if fmtField[0] == '1' {
			return 0, nil, fmt.Errorf("gio: %s: METIS vertex sizes (fmt 1xx) not supported", path)
		}
		hasVWeights = fmtField[1] == '1'
		hasEWeights = fmtField[2] == '1'
		ncon = 1
		if len(header) >= 4 {
			ncon, err = strconv.ParseInt(header[3], 10, 64)
			if err != nil || ncon < 0 {
				return 0, nil, fmt.Errorf("gio: %s: bad ncon %q", path, header[3])
			}
		}
	}

	st, err := f.Stat()
	if err != nil {
		return 0, nil, err
	}
	// An edge takes at least two bytes of the file (a digit and a separator),
	// so a header count past half the file's size is one the count check
	// below rejects; it must not size an allocation first.
	edges := make([]graph.RawEdge, 0, min(m, st.Size()/2))
	for v := int64(1); v <= n; v++ {
		fields, ok := nextLine()
		if !ok {
			return 0, nil, fmt.Errorf("gio: %s: missing adjacency line for vertex %d", path, v)
		}
		i := 0
		if hasVWeights {
			if int64(len(fields)) < ncon {
				return 0, nil, fmt.Errorf("gio: %s: vertex %d: missing vertex weights", path, v)
			}
			i = int(ncon) // weights parsed positionally and discarded
		}
		for i < len(fields) {
			u, err := strconv.ParseInt(fields[i], 10, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("gio: %s: vertex %d: bad neighbour %q", path, v, fields[i])
			}
			if u < 1 || u > n {
				return 0, nil, fmt.Errorf("gio: %s: vertex %d: neighbour %d out of [1,%d]", path, v, u, n)
			}
			i++
			w := 1.0
			if hasEWeights {
				if i >= len(fields) {
					return 0, nil, fmt.Errorf("gio: %s: vertex %d: missing weight after neighbour %d", path, v, u)
				}
				w, err = strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return 0, nil, fmt.Errorf("gio: %s: vertex %d: bad edge weight %q", path, v, fields[i])
				}
				i++
			}
			// Keep one copy per undirected edge; self loops kept as-is.
			if v <= u {
				edges = append(edges, graph.RawEdge{U: v - 1, V: u - 1, W: w})
			}
		}
	}
	if int64(len(edges)) != m {
		return 0, nil, fmt.Errorf("gio: %s: header declares %d edges, adjacency lists yield %d", path, m, len(edges))
	}
	return n, edges, nil
}

// WriteMETIS writes the graph in METIS format (fmt 001 — edge weights).
func WriteMETIS(path string, n int64, edges []graph.RawEdge) error {
	adj := make([][]graph.Edge, n)
	var m int64
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return fmt.Errorf("gio: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		adj[e.U] = append(adj[e.U], graph.Edge{To: e.V, W: e.W})
		if e.U != e.V {
			adj[e.V] = append(adj[e.V], graph.Edge{To: e.U, W: e.W})
		}
		m++
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := fmt.Fprintf(w, "%d %d 001\n", n, m); err != nil {
		return err
	}
	for v := int64(0); v < n; v++ {
		for i, e := range adj[v] {
			if i > 0 {
				if err := w.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%d %g", e.To+1, e.W); err != nil {
				return err
			}
		}
		if err := w.WriteByte('\n'); err != nil {
			return err
		}
	}
	return w.Flush()
}
