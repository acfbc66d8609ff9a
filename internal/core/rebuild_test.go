package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/mpi"
	"distlouvain/internal/partition"
)

func TestSortedRemoteCutsByOwner(t *testing.T) {
	// Ranks own [0,4) [4,4) [4,9) [9,12): rank 1 is empty.
	part := &partition.Partition{Bounds: []int64{0, 4, 4, 9, 12}}
	byOwner := make([][]int64, part.Size())
	all := sortedRemote(part, []int64{11, 2, 9, 2, 0, 11, 3, 10}, byOwner)
	if want := []int64{0, 2, 3, 9, 10, 11}; !slices.Equal(all, want) {
		t.Fatalf("all = %v, want %v", all, want)
	}
	want := [][]int64{{0, 2, 3}, {}, {}, {9, 10, 11}}
	for q := range want {
		if !slices.Equal(byOwner[q], want[q]) {
			t.Fatalf("byOwner[%d] = %v, want %v", q, byOwner[q], want[q])
		}
	}
	if all := sortedRemote(part, nil, byOwner); len(all) != 0 || slices.ContainsFunc(byOwner, func(l []int64) bool { return len(l) != 0 }) {
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
// on the graph a phase starts from and on the one rebuild returns (checked
// before the rebuild, which recycles the first graph's arrays).
func TestValidateCatchesMissingGhostSlot(t *testing.T) {
	n, edges := gen.BandedMesh(8, 1)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		check := func(g *dgraph.DistGraph) error {
			if err := g.Validate(); err != nil {
				return fmt.Errorf("intact graph: %w", err)
			}
			broken := *g
			broken.Ghosts = broken.Ghosts[:len(broken.Ghosts)-1]
			if broken.Validate() == nil {
				return fmt.Errorf("rank %d: missing ghost slot went unnoticed", c.Rank())
			}
			return nil
		}
		lo, hi := gio.SegmentRange(int64(len(edges)), c.Rank(), 2)
		dg, err := dgraph.Build(c, n, edges[lo:hi], nil)
		if err != nil {
			return err
		}
		if err := check(dg); err != nil {
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
		return check(ndg)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRebuildRecyclesReplacedGraph: a coarse graph that fits in the arrays of
// the graph it replaces is assembled into them — Index, Edges, Slot and K
// start where the replaced graph's did — phase after phase, and the replaced
// graph keeps its shape but no arrays. The coarse graphs are the ones the
// map oracle's path, which recycles nothing, builds.
func TestRebuildRecyclesReplacedGraph(t *testing.T) {
	n, edges, _ := gen.PlantedPartition(8, 40, 0.3, 0.02, 7)
	edges = floatWeights(edges)
	const p = 2
	var mu sync.Mutex
	coarse := map[bool][][]*dgraph.DistGraph{} // by refKernels, then phase, then rank
	for _, ref := range []bool{false, true} {
		recycled := 0
		err := mpi.Run(p, func(c *mpi.Comm) error {
			lo, hi := gio.SegmentRange(int64(len(edges)), c.Rank(), p)
			dg, err := dgraph.Build(c, n, edges[lo:hi], nil)
			if err != nil {
				return err
			}
			cfg := Baseline()
			cfg.oracle.refKernels = ref
			cfg.fill()
			st := &phaseState{cfg: &cfg, steps: &StepTimes{}}
			for phase := 0; phase < 3; phase++ {
				if err := st.reset(dg, phase); err != nil {
					return err
				}
				if _, err := st.iterate(cfg.Tau); err != nil {
					return err
				}
				had := *dg
				ndg, _, err := st.rebuild()
				if err != nil {
					return err
				}
				if err := ndg.Validate(); err != nil {
					return err
				}
				mu.Lock()
				if len(coarse[ref]) <= phase {
					coarse[ref] = append(coarse[ref], make([]*dgraph.DistGraph, p))
				}
				coarse[ref][phase][c.Rank()] = &dgraph.DistGraph{ // copied: the next rebuild recycles ndg
					Index: slices.Clone(ndg.Index), Slot: slices.Clone(ndg.Slot), W: slices.Clone(ndg.W),
					K: slices.Clone(ndg.K), Ghosts: slices.Clone(ndg.Ghosts),
				}
				mu.Unlock()
				if !ref {
					if dg.Index != nil || dg.Slot != nil || dg.W != nil || dg.K != nil || dg.Ghosts != nil {
						return fmt.Errorf("phase %d: the replaced graph kept its arrays", phase)
					}
					if dg.Base != had.Base || dg.LocalN != had.LocalN || dg.Part != had.Part {
						return fmt.Errorf("phase %d: the replaced graph lost its shape", phase)
					}
					if &ndg.Index[0] != &had.Index[0] || &ndg.Slot[0] != &had.Slot[0] || &ndg.W[0] != &had.W[0] || &ndg.K[0] != &had.K[0] {
						return fmt.Errorf("phase %d rank %d: the coarse graph (%d arcs) did not reuse the arrays of the %d-arc graph it replaced", phase, c.Rank(), len(ndg.Slot), len(had.Slot))
					}
					if c.Rank() == 0 {
						recycled++
					}
				}
				if ndg.GlobalN == had.GlobalN {
					break
				}
				dg = ndg
			}
			return nil
		})
		if err != nil {
			t.Fatalf("refKernels=%v: %v", ref, err)
		}
		if !ref && recycled < 2 {
			t.Fatalf("only %d rebuilds ran", recycled)
		}
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for phase, ranks := range coarse[true] {
		for r, want := range ranks {
			got := coarse[false][phase][r]
			if !slices.Equal(got.Index, want.Index) || !slices.Equal(got.Slot, want.Slot) || !slices.Equal(got.Ghosts, want.Ghosts) ||
				!slices.EqualFunc(got.W, want.W, sameBits) || !slices.EqualFunc(got.K, want.K, sameBits) {
				t.Fatalf("phase %d rank %d: the recycled coarse graph differs from the map oracle's", phase, r)
			}
		}
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
		index, ghosts []int64
		slot          []int32
		w, k          []float64
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
			out[c.Rank()] = coarse{index: ndg.Index, ghosts: ndg.Ghosts, slot: ndg.Slot, w: ndg.W, k: ndg.K}
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
				if !slices.Equal(got[r].index, want[r].index) || !slices.Equal(got[r].ghosts, want[r].ghosts) || !slices.Equal(got[r].slot, want[r].slot) ||
					!slices.Equal(got[r].w, want[r].w) || !slices.Equal(got[r].k, want[r].k) {
					t.Fatalf("threads=%d ref=%v: rank %d's coarse graph differs from the single-threaded one", threads, ref, r)
				}
			}
		}
	}
}

// TestFirstRebuildKeepsBuildsShuffle: a run whose graph dgraph.Build assembled
// reaches its first rebuild with Build's shuffle — no dgraph.NewShuffle, and
// none of the frame and assembly scratch a new one allocates: the rebuild
// allocates at least the coarse frame's bytes less than the same rebuild of a
// graph that kept no shuffle, and the coarse graph keeps Build's shuffle.
func TestFirstRebuildKeepsBuildsShuffle(t *testing.T) {
	n, edges, _, err := gen.LFR(gen.DefaultLFR(2000, 0.3, 1))
	if err != nil {
		t.Fatal(err)
	}
	edges = floatWeights(edges) // W is set, so a copy of the exported fields is a whole graph
	firstRebuild := func(keep bool) (allocated uint64, frame int, kept bool) {
		err := mpi.Run(1, func(c *mpi.Comm) error {
			dg, err := dgraph.Build(c, n, edges, nil)
			if err != nil {
				return err
			}
			built, err := dg.Reshuffle(n, dg.Part, 1)
			if err != nil {
				return err
			}
			if !keep {
				dg = &dgraph.DistGraph{Comm: dg.Comm, Part: dg.Part, GlobalN: dg.GlobalN, M2: dg.M2, Base: dg.Base, LocalN: dg.LocalN,
					Index: dg.Index, Slot: dg.Slot, W: dg.W, K: dg.K, SelfLoop: dg.SelfLoop, Ghosts: dg.Ghosts, GhostOwner: dg.GhostOwner}
			}
			cfg := Baseline()
			cfg.Threads = 2
			cfg.fill()
			st, err := newPhaseState(dg, &cfg, 0, &StepTimes{})
			if err != nil {
				return err
			}
			if _, err := st.iterate(cfg.Tau); err != nil {
				return err
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			ndg, _, err := st.rebuild()
			runtime.ReadMemStats(&after)
			if err != nil {
				return err
			}
			allocated = after.TotalAlloc - before.TotalAlloc
			frame = 1 + 16*len(ndg.Slot) // one rank: every coarse pair is reserved once, weighted
			again, err := ndg.Reshuffle(ndg.GlobalN, ndg.Part, 1)
			kept = again == built
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return allocated, frame, kept
	}
	withShuffle, frame, kept := firstRebuild(true)
	without, _, _ := firstRebuild(false)
	t.Logf("first rebuild allocates %d bytes with Build's shuffle, %d without; the coarse frame is %d", withShuffle, without, frame)
	if !kept {
		t.Fatal("the coarse graph does not keep Build's shuffle")
	}
	if withShuffle+uint64(frame) > without {
		t.Fatalf("the first rebuild allocates %d bytes with Build's shuffle and %d without: the %d-byte frame was allocated", withShuffle, without, frame)
	}
}
