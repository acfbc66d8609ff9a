package dgraph

import (
	"fmt"
	"testing"

	"distlouvain/internal/gen"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
)

// TestBuildHandsOnItsShuffle: the graph Build assembles keeps the shuffle that
// assembled it, and Reshuffle resets that one — for two writers where Build
// had one — so a following shuffle no larger than Build's fills Build's frames
// and row cursors without allocating them again, and its graph, assembled
// into the one it replaces, takes the shuffle on. The result is the graph a
// fresh Build of the same edges makes.
func TestBuildHandsOnItsShuffle(t *testing.T) {
	n, edges := gen.ErdosRenyi(400, 2400, 5)
	const p = 3
	err := mpi.Run(p, func(c *mpi.Comm) error {
		chunk := chunkEdges(edges, c.Rank(), p)
		dg, err := Build(c, n, chunk, nil)
		if err != nil {
			return err
		}
		s := dg.shuffle
		if s == nil {
			return fmt.Errorf("Build's graph keeps no shuffle")
		}
		frames := append([][]byte(nil), s.frames...)
		end := s.scratch.end

		// Every other edge of the chunk, split between two writers.
		var half []graph.RawEdge
		for i, e := range chunk {
			if i%2 == 0 {
				half = append(half, e)
			}
		}
		sh, err := dg.Reshuffle(n, dg.Part, 2)
		if err != nil {
			return err
		}
		if sh != s {
			return fmt.Errorf("Reshuffle made a new shuffle although the graph kept one")
		}
		put := func(reserve bool) {
			for i, e := range half {
				w := sh.Writer(i % 2)
				arcs := [][2]int64{{e.U, e.V}, {e.V, e.U}}
				if e.U == e.V {
					arcs = arcs[:1] // a self loop is one arc
				}
				for _, a := range arcs {
					if reserve {
						w.Reserve(sh.Owner(a[0]), 1, e.W == 1)
					} else {
						w.Put(sh.Owner(a[0]), a[0], a[1], e.W)
					}
				}
			}
		}
		put(true)
		sh.Alloc()
		put(false)
		for q, f := range sh.frames {
			if !sameArray(f, frames[q]) {
				return fmt.Errorf("rank %d: the %d-byte frame for rank %d was allocated again; Build's had %d", c.Rank(), len(f), q, len(frames[q]))
			}
		}
		got, err := sh.Exchange(dg)
		if err != nil {
			return err
		}
		if !sameArray(sh.scratch.end, end) {
			return fmt.Errorf("rank %d: the row cursors were allocated again", c.Rank())
		}
		if got.shuffle != s || dg.shuffle != nil {
			return fmt.Errorf("the shuffle did not move to the graph it assembled")
		}
		want, err := Build(c, n, half, nil)
		if err != nil {
			return err
		}
		return sameGraph(got, want)
	})
	if err != nil {
		t.Fatal(err)
	}
}
