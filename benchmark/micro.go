package main

import (
	"fmt"
	"math/rand"
	"time"

	"distlouvain/internal/flat"
	"distlouvain/internal/frontier"
	"distlouvain/internal/mpi"
)

// microLayers measures the layers below a run on their own: both transports
// on two ranks, the id codec, the flat tables and the frontier set. They do
// not depend on the workload's graph, so every workload's traced pass reports
// them and a change there can be read next to any run.
func microLayers(o *outcome, rec *recorder, parent int, opt *options) {
	scale := 1
	if opt.quick {
		scale = 4
	}
	for _, t := range []struct {
		name string
		tcp  bool
	}{{"inproc", false}, {"tcp", true}} {
		rec.span("mpi."+t.name, parent, func() {
			if err := transportMicro(o, t.name, t.tcp, scale); err != nil {
				o.problem("mpi.%s micro-run: %v", t.name, err)
			}
		})
	}
	rec.span("mpi.codec", parent, func() { codecMicro(o, opt.seed, scale) })
	rec.span("flat", parent, func() { flatMicro(o, opt.seed, scale) })
	rec.span("frontier", parent, func() { frontierMicro(o, opt.seed, scale) })
}

const (
	pingpongRounds  = 20000
	allreduceRounds = 20000
	alltoallRounds  = 40
	alltoallBytes   = 1 << 20 // per peer
	dialRounds      = 5
)

// transportMicro runs the three message patterns a Louvain iteration is made
// of — a small round trip, a scalar allreduce, a bulk all-to-all — on a
// fresh two-rank world of one transport. Rank 0 holds the clock.
func transportMicro(o *outcome, name string, tcp bool, scale int) error {
	s := o.Samples
	if tcp {
		var dials []float64
		for i := 0; i < dialRounds; i++ {
			t0 := time.Now()
			w, err := openWorld(2, true)
			if err != nil {
				return err
			}
			dials = append(dials, float64(time.Since(t0))/float64(time.Millisecond))
			w.close()
		}
		s.add("mpi.tcp.dial_ms", median(dials))
	}

	w, err := openWorld(2, tcp)
	if err != nil {
		return err
	}
	defer w.close()

	rounds := pingpongRounds / scale
	trips := make([]float64, 0, rounds)
	var allreduce, alltoall time.Duration
	payload := make([]byte, 8)
	bulk := [][]byte{make([]byte, alltoallBytes), make([]byte, alltoallBytes)}
	_, err = w.spmd(func(c *mpi.Comm) error {
		const tag = 7
		peer := 1 - c.Rank()
		for i := 0; i < rounds; i++ {
			if c.Rank() == 0 {
				t0 := time.Now()
				if err := c.Send(peer, tag, payload); err != nil {
					return err
				}
				if _, err := c.Recv(peer, tag); err != nil {
					return err
				}
				trips = append(trips, float64(time.Since(t0))/float64(time.Microsecond))
			} else {
				if _, err := c.Recv(peer, tag); err != nil {
					return err
				}
				if err := c.Send(peer, tag, payload); err != nil {
					return err
				}
			}
		}

		if err := c.Barrier(); err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < allreduceRounds/scale; i++ {
			if _, err := c.AllreduceFloat64(float64(i), mpi.OpSum); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			allreduce = time.Since(t0)
		}

		if err := c.Barrier(); err != nil {
			return err
		}
		t0 = time.Now()
		for i := 0; i < alltoallRounds; i++ {
			if _, err := c.Alltoall(bulk); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			alltoall = time.Since(t0)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if allreduce < minTimed || alltoall < minTimed {
		return fmt.Errorf("vacuous timing: allreduce loop %v, alltoall loop %v", allreduce, alltoall)
	}
	s.add("mpi."+name+".pingpong_us", percentile(trips, 50))
	s.add("mpi."+name+".allreduce_us", float64(allreduce)/float64(time.Microsecond)/float64(allreduceRounds/scale))
	// Both ranks send one block to their one peer in every round.
	crossing := float64(2 * alltoallBytes * alltoallRounds)
	s.add("mpi."+name+".alltoall_mb_per_s", crossing/1e6/alltoall.Seconds())
	return nil
}

// codecMicro measures the sorted-id gap codec that carries ghost lists and
// community requests, on a seeded ascending id stream with ghost-like gaps.
func codecMicro(o *outcome, seed uint64, scale int) {
	s := o.Samples
	rng := rand.New(rand.NewSource(int64(seed)))
	ids := make([]int64, 1<<20/scale)
	next := int64(0)
	for i := range ids {
		next += 1 + rng.Int63n(64)
		ids[i] = next
	}
	rawMB := float64(8*len(ids)) / 1e6
	var buf []byte
	enc := perCall(5, func() { buf = mpi.AppendDeltaInt64s(buf[:0], ids) })
	var back []int64
	var err error
	dec := perCall(5, func() { back, err = mpi.NewDecoder(buf).DeltaInt64s() })
	if err != nil || len(back) != len(ids) || back[len(back)-1] != ids[len(ids)-1] {
		o.problem("codec round trip: %d of %d ids, err %v", len(back), len(ids), err)
	}
	s.add("mpi.codec.delta_encode_mb_per_s", rawMB/enc.Seconds())
	s.add("mpi.codec.delta_decode_mb_per_s", rawMB/dec.Seconds())
	s.add("mpi.codec.bytes_per_id", float64(len(buf))/float64(len(ids)))
}

// flatMicro drives the tables the way the sweep and the coarsening do: one
// epoch Reset per row, then a row's worth of Adds on keys that repeat within
// the row. After the first pass has sized the tables, nothing may allocate.
func flatMicro(o *outcome, seed uint64, scale int) {
	s := o.Samples
	rng := rand.New(rand.NewSource(int64(seed)))
	const rowLen = 32
	rows := 1 << 16 / scale
	keys := make([]int64, rows*rowLen)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 20)
		if i%rowLen >= rowLen/2 { // second half of each row revisits the first
			keys[i] = keys[i-rowLen/2]
		}
	}
	tab := flat.NewTable(rowLen)
	pairs := flat.NewPairTable(rowLen)
	sweep := func() {
		for r := 0; r < rows; r++ {
			tab.Reset()
			for _, k := range keys[r*rowLen : (r+1)*rowLen] {
				tab.Add(k, 1)
			}
		}
	}
	pairSweep := func() {
		for r := 0; r < rows; r++ {
			pairs.Reset()
			for _, k := range keys[r*rowLen : (r+1)*rowLen] {
				pairs.Add(int64(r), k, 1)
			}
		}
	}
	sweep()
	pairSweep()
	allocs := mallocs(func() { sweep(); pairSweep() })
	const passes = 4
	add := perCall(passes, sweep)
	pairAdd := perCall(passes, pairSweep)
	ops := float64(len(keys))
	if tab.Len() == 0 || pairs.Len() == 0 {
		o.problem("vacuous kernel: flat tables empty after a sweep")
	}
	s.add("flat.add_ns", float64(add)/ops)
	s.add("flat.pair_add_ns", float64(pairAdd)/ops)
	s.add("flat.allocs_per_op", float64(allocs)/(2*ops))
}

// frontierMicro measures the active set on a million-vertex universe: the
// cost of marking, of building and walking a 1% frontier through the sorted
// id list (marks arrive unsorted, so Sorted has to sort), and of walking a
// dense frontier through the bitmap.
func frontierMicro(o *outcome, seed uint64, scale int) {
	s := o.Samples
	rng := rand.New(rand.NewSource(int64(seed)))
	n := int64(1 << 20 / scale)
	set := frontier.New(n, frontier.RepAuto, 0)
	marks := make([]int64, n/2)
	for i := range marks {
		marks[i] = rng.Int63n(n)
	}

	const passes = 8
	mark := perCall(passes, func() {
		set.Clear()
		for _, v := range marks {
			set.Mark(v)
		}
	})
	s.add("frontier.mark_ns", float64(mark)/float64(len(marks)))
	if !set.Dense() {
		o.problem("frontier: a %d-mark set over %d vertices stayed sparse", len(marks), n)
	}
	var sink []int64
	denseLen := set.Len()
	dense := perCall(passes, func() { sink = set.AppendAscending(sink[:0]) })
	s.add("frontier.dense_ns_per_id", float64(dense)/float64(denseLen))

	few := marks[:n/100]
	var sparseLen int64
	sparse := perCall(passes*4, func() {
		set.Clear()
		for _, v := range few {
			set.Mark(v)
		}
		sparseLen = int64(len(set.Sorted()))
	})
	if set.Dense() || sparseLen == 0 || int64(len(sink)) != denseLen {
		o.problem("frontier: sparse walk saw %d ids (dense=%v), dense walk %d of %d", sparseLen, set.Dense(), len(sink), denseLen)
	}
	s.add("frontier.sparse_ns_per_id", float64(sparse)/float64(sparseLen))
}
