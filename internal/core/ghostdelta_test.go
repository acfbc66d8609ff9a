package core

import (
	"fmt"
	"testing"

	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
)

// bipartiteBoundary builds a 2-rank-friendly graph where every vertex of the
// low half is adjacent to vertices of the high half: with an even split each
// rank holds the whole opposite half as ghosts, giving the ghost-refresh
// switch a push list wide enough that a single changed entry sits well under
// any reasonable sparse threshold.
func bipartiteBoundary(half int64) (int64, []graph.RawEdge) {
	n := 2 * half
	var edges []graph.RawEdge
	for i := int64(0); i < half; i++ {
		edges = append(edges, graph.RawEdge{U: i, V: half + i, W: 1})
		edges = append(edges, graph.RawEdge{U: i, V: half + (i+1)%half, W: 1})
	}
	return n, edges
}

// TestGhostDeltaSwitchBothDirections drives the ghost refresh's dense/sparse
// switch across the threshold in both directions within one phase state and
// checks the reconstructed ghost table against what each owner actually
// holds. The mutations are deterministic (comm[g] = g + k·n), so every rank
// can compute the world-wide expected table without a second exchange path:
//
//	round 1: every boundary vertex changes  -> dense snapshot frame
//	round 2: exactly one vertex changes     -> sparse delta frame
//	round 3: every boundary vertex changes  -> dense again
func TestGhostDeltaSwitchBothDirections(t *testing.T) {
	const half = 16
	n, edges := bipartiteBoundary(half)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		st, err := baselinePhaseState(c, n, edges)
		if err != nil {
			return err
		}
		dg := st.dg
		// want[g] is the community g's owner holds; round k moves every
		// vertex whose owner-local index passes pick to g + k·n.
		want := make([]int64, n)
		round := func(k int64, pick func(lv int64) bool) error {
			for g := int64(0); g < n; g++ {
				if pick(dg.Part.ToLocal(dg.Part.Owner(g), g)) {
					want[g] = g + k*n
				}
			}
			for lv := int64(0); lv < dg.LocalN; lv++ {
				st.setCommGID(lv, want[dg.Base+lv])
			}
			if err := st.exchangeGhostComm(); err != nil {
				return fmt.Errorf("round %d exchange: %w", k, err)
			}
			for i, g := range dg.Ghosts {
				if got := st.gidOf(st.ghostComm[i]); got != want[g] {
					return fmt.Errorf("round %d: ghost %d holds %d, owner holds %d", k, g, got, want[g])
				}
			}
			return nil
		}
		all := func(int64) bool { return true }

		// Round 1: every local vertex moves -> changed fraction 1.0, so the
		// frame must fall back to dense.
		if err := round(1, all); err != nil {
			return err
		}
		if st.ghostDenseFrames != 1 || st.ghostSparseFrames != 0 {
			return fmt.Errorf("round 1: frames dense=%d sparse=%d, want 1/0",
				st.ghostDenseFrames, st.ghostSparseFrames)
		}
		// Round 2: one vertex changes -> 1/16 of the push list, well under
		// ghostSparseThreshold -> sparse frame.
		if err := round(2, func(lv int64) bool { return lv == 3 }); err != nil {
			return err
		}
		if st.ghostDenseFrames != 1 || st.ghostSparseFrames != 1 {
			return fmt.Errorf("round 2: frames dense=%d sparse=%d, want 1/1",
				st.ghostDenseFrames, st.ghostSparseFrames)
		}
		// Round 3: everything changes again -> back across the threshold to
		// dense (the switch is per exchange, not sticky).
		if err := round(3, all); err != nil {
			return err
		}
		if st.ghostDenseFrames != 2 || st.ghostSparseFrames != 1 {
			return fmt.Errorf("round 3: frames dense=%d sparse=%d, want 2/1",
				st.ghostDenseFrames, st.ghostSparseFrames)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
