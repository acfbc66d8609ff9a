package service

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"distlouvain/internal/core"
)

// FuzzJobSpec feeds arbitrary submission bodies through handleSubmit's
// decoder (readSpec, behind its MaxBytesReader) and normalize. A body either
// fails with a 4xx — never a 5xx, never a panic — or yields a spec inside
// every bound Submit relies on: one graph source, an inline graph's vertex
// count and endpoints, ranks within the budget, min_ranks within ranks, the
// thread cap, alpha in [0, 1], and a configuration that says the same.
func FuzzJobSpec(f *testing.F) {
	for _, body := range []string{
		`{"graph_path":"/data/g.bin"}`,
		`{"vertices":3,"edges":[[0,1,1],[1,2,0]],"variant":"etc","alpha":0.5,"ranks":2,"min_ranks":1,"threads":2}`,
		`{"vertices":3,"edges":[[0,1.5,1]]}`,
		`{"vertices":2,"edges":[[0,2,1]]}`,
		`{"vertices":2,"edges":[[0,1,-1]]}`,
		`{"graph_path":"g","vertices":2}`,
		`{"graph_path":"g","ranks":5}`,
		`{"graph_path":"g","ranks":2,"min_ranks":3}`,
		`{"graph_path":"g","alpha":1.5,"threads":-1}`,
		`{"graph_path":"g","threads":100000}`,
		`{"graph_path":"g","variant":"nope"}`,
		`{"graph_path":"g","max_phases":-2}`,
		`{"graph_path":"g","nope":1}`,
		`{"vertices":1e300}`,
		`[1,2]`,
		`{"graph_path":"g"} trailing`,
		``,
	} {
		f.Add([]byte(body))
	}
	const budget = 4
	s := &Service{opt: Options{RankBudget: budget}}
	s.opt.fill()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		spec, err := readSpec(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		var cfg core.Config
		if err == nil {
			cfg, err = s.normalize(&spec)
		}
		if err != nil {
			writeErr(rec, err)
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("body %q: status %d (%v)", body, rec.Code, err)
			}
			return
		}
		inline := spec.Vertices != 0 || len(spec.Edges) > 0
		if inline == (spec.GraphPath != "") {
			t.Fatalf("accepted a spec with graph_path %q and %d inline vertices", spec.GraphPath, spec.Vertices)
		}
		if inline && (spec.Vertices < 1 || spec.Vertices > maxInlineVertices) {
			t.Fatalf("accepted %d inline vertices", spec.Vertices)
		}
		for _, e := range spec.Edges {
			for _, v := range e[:2] {
				if v < 0 || v >= float64(spec.Vertices) || v != math.Trunc(v) {
					t.Fatalf("accepted edge %v over %d vertices", e, spec.Vertices)
				}
			}
			if !(e[2] >= 0) || math.IsInf(e[2], 0) {
				t.Fatalf("accepted edge weight %v", e[2])
			}
		}
		if spec.Ranks < 1 || spec.Ranks > budget || spec.MinRanks < 1 || spec.MinRanks > spec.Ranks {
			t.Fatalf("accepted ranks %d, min_ranks %d under a budget of %d", spec.Ranks, spec.MinRanks, budget)
		}
		if spec.Threads < 0 || spec.Threads > maxSpecThreads || spec.Alpha < 0 || spec.Alpha > 1 {
			t.Fatalf("accepted threads %d, alpha %v", spec.Threads, spec.Alpha)
		}
		if cfg.Threads != spec.Threads || !(cfg.Alpha >= 0 && cfg.Alpha <= 1) {
			t.Fatalf("configuration threads %d, alpha %v from spec threads %d", cfg.Threads, cfg.Alpha, spec.Threads)
		}
		if spec.Tau < 0 || spec.MaxPhases < 0 || spec.MaxIterations < 0 {
			t.Fatalf("accepted tau %v, max_phases %d, max_iterations %d", spec.Tau, spec.MaxPhases, spec.MaxIterations)
		}
	})
}
