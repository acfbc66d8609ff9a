package supervisor

import (
	"encoding/json"
	"math"
	"sync"
	"testing"

	"distlouvain/internal/core"
	"distlouvain/internal/gen"
)

// TestBeaconsMarshal: every beacon a 2-rank run emits crosses a process
// boundary as JSON, so each must marshal and decode back to itself, a Q that
// is not finite (the phase-0 phase-start's −∞) as 0. The run must emit such a
// beacon, or the check passes on nothing.
func TestBeaconsMarshal(t *testing.T) {
	n, edges, _ := gen.PlantedPartition(4, 20, 0.5, 0.02, 3)
	var mu sync.Mutex
	var beacons []Beacon
	cfg := core.Baseline()
	cfg.Progress = CoreProgressTraced(0, nil, func(b Beacon) {
		mu.Lock()
		beacons = append(beacons, b)
		mu.Unlock()
	})
	if _, err := core.RunOnEdges(2, n, edges, cfg); err != nil {
		t.Fatal(err)
	}
	kinds := map[core.ProgressKind]int{}
	nonFinite := 0
	for _, b := range beacons {
		kinds[b.Kind]++
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("%+v: %v", b, err)
		}
		var got Beacon
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		if math.IsInf(b.Modularity, 0) || math.IsNaN(b.Modularity) {
			nonFinite++
			b.Modularity = 0
		}
		if got != b {
			t.Fatalf("%+v decoded from %s as %+v", b, data, got)
		}
	}
	if nonFinite == 0 || kinds[core.ProgressPhaseStart] == 0 || kinds[core.ProgressIteration] == 0 || kinds[core.ProgressDone] == 0 {
		t.Fatalf("%d beacons of kinds %v, %d with a Q that is not finite", len(beacons), kinds, nonFinite)
	}
}
