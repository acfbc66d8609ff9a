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
// had one — so a following shuffle no larger than Build's cuts its segments
// from Build's buffers and fills Build's row cursors without allocating
// either again, and its graph, assembled into the one it replaces, takes the
// shuffle on. The result is the graph a fresh Build of the same edges makes.
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
		held := s.Allocated()
		end := s.scratch.end

		// Every other edge of the chunk, split between two writers.
		var half []graph.RawEdge
		for i, e := range chunk {
			if i%2 == 0 {
				half = append(half, e)
			}
		}
		sh := dg.Reshuffle(n, 2, false)
		if sh != s {
			return fmt.Errorf("Reshuffle made a new shuffle although the graph kept one")
		}
		for i, e := range half {
			w := sh.Writer(i % 2)
			w.Put(sh.Owner(e.U), e.U, e.V, e.W)
			if e.U != e.V {
				w.Put(sh.Owner(e.V), e.V, e.U, e.W)
			}
		}
		if got := sh.Allocated(); got != held {
			return fmt.Errorf("rank %d: the shuffle holds %d bytes of buffers after Build's %d", c.Rank(), got, held)
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
