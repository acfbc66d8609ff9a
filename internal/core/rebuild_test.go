package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
	"distlouvain/internal/partition"
)

func TestSortedRemoteCutsByOwner(t *testing.T) {
	// Ranks own [0,4) [4,4) [4,9) [9,12): rank 1 is empty.
	part := &partition.Partition{Bounds: []int64{0, 4, 4, 9, 12}}
	all, byOwner := sortedRemote(part, []int64{11, 2, 9, 2, 0, 11, 3, 10})
	if want := []int64{0, 2, 3, 9, 10, 11}; !slices.Equal(all, want) {
		t.Fatalf("all = %v, want %v", all, want)
	}
	want := [][]int64{{0, 2, 3}, {}, {}, {9, 10, 11}}
	for q := range want {
		if !slices.Equal(byOwner[q], want[q]) {
			t.Fatalf("byOwner[%d] = %v, want %v", q, byOwner[q], want[q])
		}
	}
	if all, byOwner := sortedRemote(part, nil); len(all) != 0 || len(byOwner) != 4 {
		t.Fatalf("empty input: %v %v", all, byOwner)
	}
}

// TestRenumberingRejectsUnresolvedIDs: a live community slot whose community
// is empty must fail the renumbering, not borrow its neighbour's new ID or
// leave −1 for the coarse-arc kernel to index with.
func TestRenumberingRejectsUnresolvedIDs(t *testing.T) {
	n, edges := bipartiteBoundary(4)
	err := mpi.Run(1, func(c *mpi.Comm) error {
		st, err := baselinePhaseState(c, n, edges)
		if err != nil {
			return err
		}
		st.cSize[1] = 0 // vertex 1 still sits in community 1
		bySlot, _, err := st.renumber()
		if err == nil {
			return fmt.Errorf("renumber accepted an empty live community: %v", bySlot)
		}
		if !strings.Contains(err.Error(), "community 1 is empty") {
			return fmt.Errorf("error %q does not name community 1", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestValidateCatchesMissingGhostSlot: coarseArcs reads dg.Slot on trust,
// so a non-owned target without a ghost slot is dgraph.Validate's to report —
// on the graph a phase starts from and on the one rebuild returns.
func TestValidateCatchesMissingGhostSlot(t *testing.T) {
	n, edges := gen.BandedMesh(8, 1)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		lo, hi := gio.SegmentRange(int64(len(edges)), c.Rank(), 2)
		dg, err := dgraph.Build(c, n, edges[lo:hi], nil)
		if err != nil {
			return err
		}
		cfg := Baseline()
		cfg.fill()
		st, err := newPhaseState(dg, &cfg, 0, &StepTimes{})
		if err != nil {
			return err
		}
		ndg, _, err := st.rebuild()
		if err != nil {
			return err
		}
		for _, g := range []*dgraph.DistGraph{dg, ndg} {
			if err := g.Validate(); err != nil {
				return fmt.Errorf("intact graph: %w", err)
			}
			g.Ghosts = g.Ghosts[:len(g.Ghosts)-1]
			if g.Validate() == nil {
				return fmt.Errorf("rank %d: missing ghost slot went unnoticed", c.Rank())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRebuildIndependentOfThreads: workers split the source communities, not
// the vertices, so a coarse pair leaves a rank once, summed in one order,
// however many workers there are — the coarse graph is the single-threaded one
// bit for bit even on float weights, shipped and map kernels alike.
func TestRebuildIndependentOfThreads(t *testing.T) {
	n, edges, _ := gen.PlantedPartition(6, 25, 0.4, 0.02, 19)
	edges = floatWeights(edges)
	const p = 2
	type coarse struct {
		index []int64
		edges []graph.Edge
		k     []float64
	}
	rebuildWith := func(threads int, ref bool) [p]coarse {
		var out [p]coarse
		var mu sync.Mutex
		err := mpi.Run(p, func(c *mpi.Comm) error {
			lo, hi := gio.SegmentRange(int64(len(edges)), c.Rank(), p)
			dg, err := dgraph.Build(c, n, edges[lo:hi], nil)
			if err != nil {
				return err
			}
			cfg := Baseline()
			cfg.Threads = threads
			cfg.oracle.refKernels = ref
			cfg.fill()
			st, err := newPhaseState(dg, &cfg, 0, &StepTimes{})
			if err != nil {
				return err
			}
			if _, err := st.iterate(cfg.Tau); err != nil {
				return err
			}
			ndg, _, err := st.rebuild()
			if err != nil {
				return err
			}
			if err := ndg.Validate(); err != nil {
				return err
			}
			if ndg.GlobalN >= dg.GlobalN {
				return fmt.Errorf("no compaction: %d -> %d", dg.GlobalN, ndg.GlobalN)
			}
			mu.Lock()
			out[c.Rank()] = coarse{index: ndg.Index, edges: ndg.Edges, k: ndg.K}
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("threads=%d ref=%v: %v", threads, ref, err)
		}
		return out
	}
	want := rebuildWith(1, false)
	for _, threads := range []int{1, 2, 3, 5} {
		for _, ref := range []bool{false, true} {
			got := rebuildWith(threads, ref)
			for r := range want {
				if !slices.Equal(got[r].index, want[r].index) || !slices.Equal(got[r].edges, want[r].edges) || !slices.Equal(got[r].k, want[r].k) {
					t.Fatalf("threads=%d ref=%v: rank %d's coarse graph differs from the single-threaded one", threads, ref, r)
				}
			}
		}
	}
}
