package core

import (
	"testing"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/mpi"
)

// BenchmarkDistributedVariants tracks each variant end to end on a common
// input.
func BenchmarkDistributedVariants(b *testing.B) {
	n, edges, _, err := gen.LFR(gen.DefaultLFR(4000, 0.3, 9))
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []Config{Baseline(), ThresholdCycling(), ET(0.25), ETC(0.25)} {
		b.Run(cfg.VariantName(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunOnEdges(2, n, edges, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRebuild times one Fig. 1 reconstruction — renumbering, coarse-arc
// aggregation, arc shuffle and CSR assembly — after the first phase of an
// R-MAT scale-14 graph on 2 ranks. Building the graph and iterating the
// phase happen off the clock.
func BenchmarkRebuild(b *testing.B) {
	n, edges, err := gen.RMAT(14, 8, .57, .19, .19, .05, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
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
			if _, err := st.iterate(cfg.Tau); err != nil {
				return err
			}
			// rebuild opens and closes with collectives, so rank 0's
			// clock covers the slower rank too.
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				b.StartTimer()
				defer b.StopTimer()
			}
			_, _, err = st.rebuild()
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
