package core

import (
	"runtime"
	"slices"
	"testing"

	"distlouvain/internal/gen"
	"distlouvain/internal/graph"
)

// TestRunAllocationCeiling pins what a whole 2-rank run allocates — Build, the
// phases, coarsening, the gathered labels — so the construction and phase
// memory diet cannot drift back: the runtime.MemStats.TotalAlloc growth
// across core.RunOnEdges, least of three runs (whatever else the process
// allocates meanwhile only adds to a run), must stay under a ceiling about
// 10 % above what the run allocates: 3.44 MB on R-MAT 12 and 3.47 MB on LFR
// 4000, or 3.97 and 4.18 MB under -race. Before the compact arc records, the
// coarse arcs written straight into their frames and the phase state kept for
// the run, the same runs allocated 10.6 and 9.8 MB; before each rebuild
// assembled into the graph it replaces, 6.11 and 6.66 MB; before the graph
// stored an arc as a slot and a weight, 5.40 and 5.96 MB; before a
// unit-weight input's graph kept no weights, 4.51 and 4.96 MB (R-MAT's
// parallel edges give its graph weights either way); before the first rebuild
// took Build's shuffle and receivers released their frames to the transport,
// 4.46 and 4.49 MB; before the per-slot arrays had room for the tail, the
// sweep returned its one worker's move list and the rebuild tables lived on
// the run, 4.03 and 4.16 MB.
func TestRunAllocationCeiling(t *testing.T) {
	rn, rEdges, err := gen.RMAT(12, 8, .57, .19, .19, .05, 1)
	if err != nil {
		t.Fatal(err)
	}
	ln, lEdges, _, err := gen.LFR(gen.DefaultLFR(4000, 0.3, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		n             int64
		edges         []graph.RawEdge
		ceiling, race uint64
	}{
		{"rmat12", rn, rEdges, 3_780_000, 4_370_000},
		{"lfr4000", ln, lEdges, 3_810_000, 4_590_000},
	} {
		ceiling := tc.ceiling
		if raceEnabled {
			ceiling = tc.race
		}
		var runs []uint64
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := RunOnEdges(2, tc.n, tc.edges, Baseline()); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			runs = append(runs, after.TotalAlloc-before.TotalAlloc)
		}
		least := slices.Min(runs)
		t.Logf("%s: %d bytes allocated per run (least of %v), ceiling %d", tc.name, least, runs, ceiling)
		if least > ceiling {
			t.Errorf("%s: a run allocated %d bytes, ceiling %d", tc.name, least, ceiling)
		}
	}
}

// TestRebuildsCutFromHeldSegments: the shuffle a run carries from Build to its
// last rebuild cuts every frame's segments from the buffers it holds,
// whatever owner they were cut for before, so once phase 0's coarse frames
// fit — at 2 ranks on R-MAT 12, Build's buffers already hold them — no later
// rebuild allocates a segment byte. Each phase's graph is the last rebuild's
// (Build's for phase 0), and its shuffle's Allocated is read at the phase's
// first iteration.
func TestRebuildsCutFromHeldSegments(t *testing.T) {
	n, edges, err := gen.RMAT(12, 8, .57, .19, .19, .05, 1)
	if err != nil {
		t.Fatal(err)
	}
	const p = 2
	held := make([][]int, p) // [rank][phase]
	cfg := Baseline()
	cfg.oracle.afterFetch = func(st *phaseState) error {
		r := st.dg.Comm.Rank()
		if len(held[r]) > st.phase {
			return nil
		}
		held[r] = append(held[r], st.dg.Reshuffle(st.dg.GlobalN, 1, true).Allocated())
		return nil
	}
	if _, err := RunOnEdges(p, n, edges, cfg); err != nil {
		t.Fatal(err)
	}
	for r, h := range held {
		t.Logf("rank %d: segment bytes held by the shuffle at the start of each phase: %v", r, h)
		if len(h) < 3 {
			t.Fatalf("rank %d: %d phases, want at least 3", r, len(h))
		}
		for k := 2; k < len(h); k++ {
			if h[k] != h[1] {
				t.Errorf("rank %d: the rebuild after phase %d took the shuffle from %d to %d segment bytes", r, k-1, h[1], h[k])
			}
		}
		if h[1] != h[0] {
			t.Errorf("rank %d: phase 0's rebuild took the shuffle from Build's %d to %d segment bytes", r, h[0], h[1])
		}
	}
}
