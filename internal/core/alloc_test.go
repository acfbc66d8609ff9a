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
