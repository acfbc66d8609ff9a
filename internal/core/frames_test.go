package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
)

// baselinePhaseState builds this rank's share of the graph and a phase-0
// state over it under the Baseline configuration (a collective).
func baselinePhaseState(c *mpi.Comm, n int64, edges []graph.RawEdge) (*phaseState, error) {
	lo, hi := gio.SegmentRange(int64(len(edges)), c.Rank(), c.Size())
	dg, err := dgraph.Build(c, n, edges[lo:hi], nil)
	if err != nil {
		return nil, err
	}
	cfg := Baseline()
	cfg.fill()
	return newPhaseState(dg, &cfg, 0, &StepTimes{})
}

// TestMalformedFramesRejected feeds every per-iteration decoder a truncated,
// an over-long and an out-of-range frame and requires ErrMalformedFrame
// naming the frame kind and the sending rank. Rank 0 runs the real protocol
// step on an honest phase state; rank 1 is an impostor that answers each
// all-to-all round of the step with a scripted payload. The honest script
// must pass, so a rejection is down to the corruption and nothing else.
//
// bipartiteBoundary(4) on 2 ranks: rank 0 owns 0..3 and ghosts 4..7, rank 1
// the mirror image; at phase start every vertex is its own community.
func TestMalformedFramesRejected(t *testing.T) {
	const half = 4
	n, edges := bipartiteBoundary(half)
	ids := func(vs ...int64) []byte { return mpi.AppendDeltaInt64s(nil, vs) }
	varints := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = mpi.AppendVarint(b, v)
		}
		return b
	}
	info := func(k int) []byte { // k (A_c, size) reply entries
		var b []byte
		for i := 0; i < k; i++ {
			b = mpi.AppendVarint(mpi.AppendFloat64(b, 2), 1)
		}
		return b
	}
	delta := func(cid int64) []byte { // one (cid gap, ΔA, Δsize) entry
		return mpi.AppendVarint(mpi.AppendFloat64(mpi.AppendVarint(nil, cid), 1), 1)
	}

	// The flatten asks for the new communities of vertices 4..7; the
	// identity table stands in for rebuild's.
	lookup := func(st *phaseState) error {
		bySlot := make([]int64, len(st.refs))
		for s := range bySlot {
			bySlot[s] = st.gidOf(int32(s))
		}
		return st.flatten(bySlot, []int64{4, 5, 6, 7})
	}
	renumber := func(st *phaseState) error {
		_, _, err := st.renumber()
		return err
	}
	// Step 3 of the rebuild, answered honestly: rank 1's four communities
	// all survive, after rank 0's four.
	renumberPrelude := func(c *mpi.Comm) error {
		if _, err := c.ExscanInt64(half); err != nil {
			return err
		}
		_, err := c.AllreduceInt64(half, mpi.OpSum)
		return err
	}

	cases := []struct {
		kind       string                  // frame name the error must carry
		step       func(*phaseState) error // what rank 0 runs
		rounds     [][]byte                // honest payloads rank 1 addresses to rank 0, one per all-to-all round
		target     int                     // index of the round under test
		outOfRange []byte                  // well-formed frame naming something rank 0 does not hold (nil: the kind carries only values)
		prelude    func(*mpi.Comm) error   // the collectives rank 1 answers before the all-to-all rounds (nil: none)
	}{
		{
			kind:       "ghost-list request",
			step:       (*phaseState).setupGhostLists,
			rounds:     [][]byte{ids(0, 1, 2, 3)},
			outOfRange: ids(0, 1, 2, 5),
		},
		{
			kind:       "ghost frame",
			step:       (*phaseState).exchangeGhostComm,
			rounds:     [][]byte{append([]byte{ghostFrameDense}, varints(4, 5, 6, 7)...)},
			outOfRange: append([]byte{7}, varints(4, 5, 6, 7)...), // unknown mode byte
		},
		{
			kind:       "ghost frame",
			step:       (*phaseState).exchangeGhostComm,
			rounds:     [][]byte{{ghostFrameSparse, 1, 2, 12}}, // one entry: position 2 -> community 6
			outOfRange: []byte{ghostFrameSparse, 1, half, 12},
		},
		{
			kind:       "community-info request",
			step:       (*phaseState).fetchCommunityInfo,
			rounds:     [][]byte{ids(0, 1, 2, 3), info(half)},
			outOfRange: ids(0, 1, 2, 6),
		},
		{
			kind:   "community-info reply",
			step:   (*phaseState).fetchCommunityInfo,
			rounds: [][]byte{ids(), info(half)},
			target: 1,
		},
		{
			kind:       "comm-lookup request",
			step:       lookup,
			rounds:     [][]byte{ids(0, 1, 2, 3), varints(4, 5, 6, 7)},
			outOfRange: ids(0, 1, 2, 6),
		},
		{
			kind:   "comm-lookup reply",
			step:   lookup,
			rounds: [][]byte{ids(), varints(4, 5, 6, 7)},
			target: 1,
		},
		{
			kind:       "renumber request",
			step:       renumber,
			rounds:     [][]byte{ids(0, 1, 2, 3), varints(4, 1, 1, 1)},
			outOfRange: ids(0, 1, 2, 6),
			prelude:    renumberPrelude,
		},
		{
			kind:       "renumber reply",
			step:       renumber,
			rounds:     [][]byte{ids(), varints(4, 1, 1, 1)}, // new IDs 4..7 as gaps
			target:     1,
			outOfRange: varints(4, 1, 1, 2), // new ID 8 of 8
			prelude:    renumberPrelude,
		},
		{
			kind:       "delta frame",
			step:       func(st *phaseState) error { return st.pushDeltas(nil, nil) },
			rounds:     [][]byte{delta(2)},
			outOfRange: delta(6),
		},
	}

	// play runs one script and returns rank 0's verdict.
	play := func(step func(*phaseState) error, prelude func(*mpi.Comm) error, rounds [][]byte) error {
		return mpi.Run(2, func(c *mpi.Comm) error {
			st, err := baselinePhaseState(c, n, edges)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				return step(st)
			}
			if prelude != nil {
				if err := prelude(c); err != nil {
					return err
				}
			}
			for _, payload := range rounds {
				// Once rank 0 rejects a frame the world closes under the
				// impostor; that failure is the expected outcome, not news.
				if _, err := c.Alltoall([][]byte{payload, nil}); err != nil {
					break
				}
			}
			return nil
		})
	}

	for _, tc := range cases {
		honest := tc.rounds[tc.target]
		variants := []struct {
			name  string
			frame []byte
		}{
			{"truncated", honest[:len(honest)-1]},
			{"over-long", append(append([]byte(nil), honest...), 0)},
			{"out-of-range", tc.outOfRange},
		}
		t.Run(tc.kind, func(t *testing.T) {
			if err := play(tc.step, tc.prelude, tc.rounds); err != nil {
				t.Fatalf("honest script rejected: %v", err)
			}
			for _, v := range variants {
				if v.frame == nil {
					continue
				}
				rounds := append([][]byte(nil), tc.rounds...)
				rounds[tc.target] = v.frame
				err := play(tc.step, tc.prelude, rounds)
				if !errors.Is(err, ErrMalformedFrame) {
					t.Errorf("%s: got %v, want ErrMalformedFrame", v.name, err)
					continue
				}
				if msg := err.Error(); !strings.Contains(msg, tc.kind+" from rank 1") {
					t.Errorf("%s: error %q does not name a %s from rank 1", v.name, msg, tc.kind)
				}
			}
		})
	}
}

// ghostFrameStates builds a 3-rank world in which every rank ghosts 16
// vertices of each of the other two, and returns rank 0's and rank 1's phase
// states. The states outlive the world: the ghost-frame codec never touches
// the communicator.
func ghostFrameStates(tb testing.TB) (recv, sender *phaseState) {
	const per, p = 16, 3
	n := int64(per * p)
	var edges []graph.RawEdge
	for i := int64(0); i < n; i++ {
		edges = append(edges, graph.RawEdge{U: i, V: (i + per) % n, W: 1})
	}
	states, err := mpi.RunCollect(p, func(c *mpi.Comm) (*phaseState, error) {
		return baselinePhaseState(c, n, edges)
	})
	if err != nil {
		tb.Fatal(err)
	}
	return states[0], states[1]
}

// FuzzGhostFrame drives decodeGhostDelta with arbitrary bytes on a small
// fixed phase state: it must never panic, never write a ghost slot that
// belongs to another peer, and reject only with ErrMalformedFrame. The same
// input then scripts the sender's communities, and whatever frame
// encodeGhostDelta produces — dense or sparse, by the changed fraction — must
// decode cleanly into exactly the sender's values.
func FuzzGhostFrame(f *testing.F) {
	recv, sender := ghostFrameStates(f)
	const untouched = -7
	dense := []byte{ghostFrameDense}
	for i := int64(0); i < 16; i++ {
		dense = mpi.AppendVarint(dense, 100+i)
	}
	f.Add(dense)
	f.Add([]byte{ghostFrameSparse, 2, 3, 10, 9, 12})  // positions 3 and 12
	f.Add([]byte("0123456789abcdef0123456789ABCDEF")) // scripts a 6/16 change: dense on the encode side

	f.Fuzz(func(t *testing.T, data []byte) {
		for i := range recv.ghostComm {
			recv.mustSetGhost(int32(i), untouched)
		}
		if err := recv.decodeGhostDelta(1, data); err != nil && !errors.Is(err, ErrMalformedFrame) {
			t.Fatalf("untyped rejection: %v", err)
		}
		for _, slot := range recv.ghostSlots[2] {
			if recv.gidOf(recv.ghostComm[slot]) != untouched {
				t.Fatalf("frame from rank 1 wrote rank 2's ghost slot %d", slot)
			}
		}

		// Round trip. The first len(push) bytes script what the peer holds
		// (a sparse frame is relative to that), the next len(push) what the
		// owner holds now; where the input runs out the entry is unchanged.
		slots, push := recv.ghostSlots[1], sender.pushList[0]
		for i, lv := range push {
			held := int64(-1)
			if i < len(data) {
				held = int64(data[i])
			}
			now := held
			if j := len(push) + i; j < len(data) {
				now = int64(data[j])
			}
			sender.setCommGID(lv, held)
			sender.lastSent[0][i] = sender.comm[lv]
			recv.mustSetGhost(slots[i], held)
			sender.setCommGID(lv, now)
		}
		if err := recv.decodeGhostDelta(1, sender.encodeGhostDelta(nil, 0)); err != nil {
			t.Fatalf("encoder output rejected: %v", err)
		}
		for i, lv := range push {
			if got, want := recv.gidOf(recv.ghostComm[slots[i]]), sender.gidOf(sender.comm[lv]); got != want {
				t.Fatalf("ghost %d holds %d, owner holds %d", i, got, want)
			}
		}
	})
}

// FuzzOwnerRequest drives decodeOwnerRequest, the one decoder of an owner
// round trip's request, with arbitrary bytes on rank 0 of ghostFrameStates'
// world (it owns 0..15 of 48): it must never panic, never accept an ID owned
// elsewhere or out of order, and reject only with ErrMalformedFrame. The same
// input then picks a subset of the owned IDs, and what the request encoder
// writes for it must decode back to exactly that subset.
func FuzzOwnerRequest(f *testing.F) {
	st, _ := ghostFrameStates(f)
	ids := func(vs ...int64) []byte { return mpi.AppendDeltaInt64s(nil, vs) }
	f.Add(ids())
	f.Add(ids(0, 1, 2, 15))
	f.Add(ids(3, 3))   // repeated
	f.Add(ids(5, 2))   // descending
	f.Add(ids(14, 16)) // past the owned range
	f.Add(ids(-1))

	f.Fuzz(func(t *testing.T, data []byte) {
		lcs, err := st.decodeOwnerRequest(nil, "fuzz", 1, data)
		if err != nil {
			if !errors.Is(err, ErrMalformedFrame) || !strings.Contains(err.Error(), "fuzz request from rank 1") {
				t.Fatalf("untyped or unnamed rejection: %v", err)
			}
		} else {
			for i, lc := range lcs {
				if lc < 0 || lc >= st.dg.LocalN {
					t.Fatalf("accepted local index %d outside [0,%d)", lc, st.dg.LocalN)
				}
				if i > 0 && lc <= lcs[i-1] {
					t.Fatalf("accepted %d after %d", lc, lcs[i-1])
				}
			}
		}

		var want []int64
		for i := int64(0); i < st.dg.LocalN && i < int64(len(data)); i++ {
			if data[i]&1 != 0 {
				want = append(want, i)
			}
		}
		req := make([]int64, len(want))
		for i, lc := range want {
			req[i] = st.dg.Base + lc
		}
		got, err := st.decodeOwnerRequest(nil, "fuzz", 1, mpi.AppendDeltaInt64s(nil, req))
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("round trip of %v: got %v, %v", want, got, err)
		}
	})
}
