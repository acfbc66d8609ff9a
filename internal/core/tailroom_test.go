package core

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
)

// Tail room. A phase's per-slot arrays are allocated with room for the tail
// behind the held slots (tailRoom), so the tail slots setGhost adds append in
// place; a tail that outgrows the room appends at append's price. The tests
// below pin both halves: the arrays keep their memory while the tail fits,
// and a tail past the room still matches the oracles.

// slotArray is where a per-slot array's memory is and how far it reaches.
type slotArray struct {
	data unsafe.Pointer
	cap  int
}

func arrayOf[T any](s []T) slotArray {
	return slotArray{unsafe.Pointer(unsafe.SliceData(s)), cap(s)}
}

// slotArrays names every per-slot array the tail room is for, as far as it
// exists yet: the accumulators and Δsize are fitted by the first sweep, the
// rule-(d) marks exist only with a frontier.
func (st *phaseState) slotArrays() map[string]slotArray {
	m := map[string]slotArray{
		"cA":      arrayOf(st.cA),
		"cSize":   arrayOf(st.cSize),
		"refs":    arrayOf(st.refs),
		"fetched": arrayOf(st.fetched),
	}
	if st.fr != nil {
		m["stamp"] = arrayOf(st.fr.stamp)
		m["dir"] = arrayOf(st.fr.dir)
	}
	if st.deltaSize != nil {
		m["deltaSize"] = arrayOf(st.deltaSize)
	}
	for w := range st.accs {
		if st.accs[w].w != nil {
			m[fmt.Sprintf("accs[%d].w", w)] = arrayOf(st.accs[w].w)
			m[fmt.Sprintf("accs[%d].stamp", w)] = arrayOf(st.accs[w].stamp)
		}
	}
	return m
}

// tailWatch records, over one phase, the most tail slots this rank held, the
// room it had for them, the per-slot arrays that moved meanwhile and those
// whose capacity fell short of the held slots plus the room.
type tailWatch struct {
	st      *phaseState
	arrays  map[string]unsafe.Pointer
	maxTail int
	held    int
	room    int
	moved   []string
	short   []string
}

func newTailWatch(st *phaseState) *tailWatch {
	held := int(st.dg.LocalN) + len(st.dg.Ghosts)
	return &tailWatch{st: st, arrays: map[string]unsafe.Pointer{}, held: held, room: tailRoom(held)}
}

// check compares every per-slot array with the one it first saw.
func (tw *tailWatch) check() {
	tw.maxTail = max(tw.maxTail, tw.st.tail.Len())
	for name, a := range tw.st.slotArrays() {
		if was, ok := tw.arrays[name]; !ok {
			tw.arrays[name] = a.data
		} else if was != a.data && !slices.Contains(tw.moved, name) {
			tw.moved = append(tw.moved, name)
		}
		if a.cap < tw.held+tw.room && !slices.Contains(tw.short, name) {
			tw.short = append(tw.short, name)
		}
	}
}

// tailRun drives every phase of g at the given rank and thread count by hand,
// with the slot oracle and a tailWatch hooked in after every fetch, after every
// iteration and after the phase, and returns each rank's watches.
func tailRun(ranks, threads int, n int64, edges []graph.RawEdge) ([][]*tailWatch, error) {
	return mpi.RunCollect(ranks, func(c *mpi.Comm) ([]*tailWatch, error) {
		lo, hi := gio.SegmentRange(int64(len(edges)), c.Rank(), ranks)
		dg, err := dgraph.Build(c, n, edges[lo:hi], nil)
		if err != nil {
			return nil, err
		}
		var watches []*tailWatch
		for phase := 0; phase < 4; phase++ {
			cfg := Baseline()
			cfg.Threads = threads
			cfg.fill()
			st, err := newPhaseState(dg, &cfg, phase, &StepTimes{})
			if err != nil {
				return nil, err
			}
			o, tw := newSlotOracle(st), newTailWatch(st)
			st.afterFetch = func() error {
				tw.check()
				return o.afterFetch()
			}
			var hookErr error
			cfg.Progress = func(ev ProgressEvent) {
				if ev.Kind == ProgressIteration && hookErr == nil {
					tw.check()
					hookErr = o.checkRefs(fmt.Sprintf("after iteration %d", ev.Iteration))
				}
			}
			_, err = st.iterate(cfg.Tau)
			if err == nil {
				err = hookErr
			}
			if err == nil {
				tw.check()
				err = o.checkRefs("after the phase")
			}
			if err != nil {
				return nil, fmt.Errorf("phase %d: %w", phase, err)
			}
			watches = append(watches, tw)
			ndg, _, err := st.rebuild()
			if err != nil {
				return nil, err
			}
			if ndg.GlobalN == dg.GlobalN {
				break
			}
			dg = ndg
		}
		return watches, nil
	})
}

// TestTailSlotsAppendInPlace: on a graph whose ghost frames add tail slots
// well inside the room, every per-slot array — cA, cSize, refs, fetched, the
// rule-(d) stamp and dir, Δsize, the workers' accumulators — has room for the
// held slots and the tail, none is reallocated within a phase, and the tables
// still pass the slot oracle.
func TestTailSlotsAppendInPlace(t *testing.T) {
	g := slotGraphs()[0]
	sawTail := false
	for _, ranks := range []int{2, 3} {
		for _, threads := range []int{1, 2} {
			out, err := tailRun(ranks, threads, g.n, g.edges)
			if err != nil {
				t.Fatalf("ranks=%d threads=%d: %v", ranks, threads, err)
			}
			for r, watches := range out {
				for phase, tw := range watches {
					if tw.maxTail > tw.room {
						t.Fatalf("ranks=%d threads=%d rank %d phase %d: tail of %d past the room of %d; pick a graph whose tail fits",
							ranks, threads, r, phase, tw.maxTail, tw.room)
					}
					if slices.Sort(tw.moved); len(tw.moved) > 0 {
						t.Errorf("ranks=%d threads=%d rank %d phase %d: %v reallocated with a tail of %d in a room of %d",
							ranks, threads, r, phase, tw.moved, tw.maxTail, tw.room)
					}
					if slices.Sort(tw.short); len(tw.short) > 0 {
						t.Errorf("ranks=%d threads=%d rank %d phase %d: %v hold fewer than %d held slots plus a room of %d",
							ranks, threads, r, phase, tw.short, tw.held, tw.room)
					}
					sawTail = sawTail || tw.maxTail > 0
				}
			}
		}
	}
	if !sawTail {
		t.Fatal("no rank ever held a tail slot; the room went untested")
	}
}

// tailPastRoomGraph is a 2-rank graph whose rank 0 ends its first iteration
// with a tail past the room. Rank 1 holds pairs c_j = 2P+j and b_j = 3P+j
// joined by weight 10; rank 0 holds a_j = j, each tied to b_j by weight 1,
// and P more vertices paired among themselves. In iteration 1 every b_j joins
// c_j (the smaller label of two singletons) and every a_j is refused b_j, so
// rank 0's ghost b_j names c_j, a community it neither owns nor holds as a
// ghost: P tail slots against 3P held slots, whose room is 3P/16 + 64.
func tailPastRoomGraph(p int64) (int64, []graph.RawEdge) {
	var edges []graph.RawEdge
	for j := int64(0); j < p; j++ {
		edges = append(edges,
			graph.RawEdge{U: j, V: 3*p + j, W: 1},
			graph.RawEdge{U: 2*p + j, V: 3*p + j, W: 10})
	}
	for j := p; j < 2*p; j += 2 {
		edges = append(edges, graph.RawEdge{U: j, V: j + 1, W: 1})
	}
	return 4 * p, edges
}

// TestTailPastRoomMatchesOracles: a tail that outgrows the room still appends
// correctly — the slot oracle holds after every fetch, and the whole run
// retraces the full-scan reference kernels bit for bit.
func TestTailPastRoomMatchesOracles(t *testing.T) {
	n, edges := tailPastRoomGraph(200)
	for _, threads := range []int{1, 2} {
		out, err := tailRun(2, threads, n, edges)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if tw := out[0][0]; tw.maxTail <= tw.room {
			t.Fatalf("threads=%d: rank 0's phase-0 tail peaked at %d slots, inside the room of %d", threads, tw.maxTail, tw.room)
		}
		ref := Baseline()
		ref.Threads = threads
		ref.oracle = oracle{refKernels: true, fullScan: true}
		want, err := RunOnEdges(2, n, edges, ref)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Baseline()
		cfg.Threads = threads
		got, err := RunOnEdges(2, n, edges, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameTrajectory(t, fmt.Sprintf("threads=%d", threads), got, want)
	}
}

// TestSweepReturnsTheWorkerBuffer: with one worker the sweep's move list is
// worker 0's buffer itself — made on first use with room for every local
// vertex — and nothing is gathered into allMoves; with two it is the gather.
func TestSweepReturnsTheWorkerBuffer(t *testing.T) {
	g := slotGraphs()[0]
	for _, threads := range []int{1, 2} {
		err := mpi.Run(1, func(c *mpi.Comm) error {
			dg, err := dgraph.Build(c, g.n, g.edges, nil)
			if err != nil {
				return err
			}
			cfg := Baseline()
			cfg.Threads = threads
			cfg.fill()
			st, err := newPhaseState(dg, &cfg, 0, &StepTimes{})
			if err != nil {
				return err
			}
			if err := st.fetchCommunityInfo(); err != nil {
				return err
			}
			st.buildFrontier(1)
			moves := st.sweep(1)
			if len(moves) == 0 {
				return fmt.Errorf("threads=%d: no moves in the first sweep", threads)
			}
			share := st.workerShare()
			for w, ms := range st.moveBufs {
				if cap(ms) < share {
					return fmt.Errorf("threads=%d: worker %d's buffer holds %d moves, its share is %d", threads, w, cap(ms), share)
				}
			}
			buf := unsafe.SliceData(st.moveBufs[0])
			switch {
			case threads == 1 && (unsafe.SliceData(moves) != buf || st.allMoves != nil):
				return fmt.Errorf("one worker: the move list is not worker 0's buffer (or allMoves was filled)")
			case threads > 1 && (unsafe.SliceData(moves) == buf || !slices.Equal(moves, slices.Concat(st.moveBufs...))):
				return fmt.Errorf("%d workers: the move list is not the gather of their buffers", threads)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
