package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"distlouvain/internal/dgraph"
	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
	"distlouvain/internal/seq"
)

// The slot differential harness. Two reads of stored state stand in for
// per-arc work — dgraph.Slot for "which community is at the other end" and
// rowIntra for "how much of this row is intra-community" — so both are held
// to a path that stores neither: the reference kernels resolve every target
// by global ID, and the full scan recomputes every row every iteration.
// TestRunProperties runs both lanes on every draw; the tests here check the
// slots and the cached rows themselves.

// slotGraphs: the integer-weighted graph takes the rollback branch (the tests
// that read its slots assert it); Build scales the float weights to integers.
type slotGraph struct {
	name  string
	n     int64
	edges []graph.RawEdge
	float bool
}

func slotGraphs() []slotGraph {
	in, iEdges := gen.ErdosRenyi(300, 1500, 5)
	fn, fEdges := gen.ErdosRenyi(250, 1200, 17)
	return []slotGraph{
		{"er-int", in, iEdges, false},
		{"er-float", fn, floatWeights(fEdges), true},
	}
}

// trajectoryDigest folds everything sameTrajectory compares into one FNV-1a
// value.
func trajectoryDigest(res *Result) string {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, st := range res.Phases {
		put(uint64(len(st.QTrajectory)))
		for i, q := range st.QTrajectory {
			put(math.Float64bits(q))
			put(uint64(st.MovesTrajectory[i]))
			put(uint64(st.ReturnsTrajectory[i]))
		}
		put(uint64(st.DampedFrom))
	}
	put(math.Float64bits(res.Modularity))
	for _, c := range res.GlobalComm {
		put(uint64(c))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestFrontierTrajectoryDigestsPinned: with integer weights every sum is
// exact, so any change of kernel, table or frontier must reproduce these
// trajectories to the bit. The digests were recorded once at a4f76e8 (one
// running sum over commOf lookups) and held through every kernel rewrite up to
// cd63276; they were re-recorded when equal-ΔQ ties stopped breaking towards
// the smallest community ID (tieBefore), and again when phases began to damp
// their returns (and the digest to fold the return counts in) — the two
// deliberate trajectory changes. Between them, rule (d) taking a direction
// reproduced both.
func TestFrontierTrajectoryDigestsPinned(t *testing.T) {
	ern, erEdges := gen.ErdosRenyi(300, 1500, 5)
	meshN, meshEdges := gen.BandedMesh(600, 4)
	cases := []struct {
		name  string
		n     int64
		edges []graph.RawEdge
		ranks int
		cfg   Config
		want  string
	}{
		{"er baseline, 2 ranks", ern, erEdges, 2, Baseline(), "4db9a5bb41c67c97"},
		{"band etc, 4 ranks", meshN, meshEdges, 4, ETC(0.25), "0f8b5d86b01b525a"},
	}
	for _, c := range cases {
		res, err := RunOnEdges(c.ranks, c.n, c.edges, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := trajectoryDigest(res); got != c.want {
			t.Errorf("%s: trajectory digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestFrontierIterationQMatchesLabels drives the phases by hand so that every
// iteration's reported Q — cached rows included, the rolled-back iteration
// included — can be held to the certified Q (seq.Certify) of the labels the
// ranks hold at that moment, on the graph the phase runs on, bit for bit.
func TestFrontierIterationQMatchesLabels(t *testing.T) {
	for _, g := range slotGraphs() {
		for _, ranks := range []int{1, 2, 4} {
			var checked, rollbacks int // rank 0's
			err := mpi.Run(ranks, func(c *mpi.Comm) error {
				lo, hi := gio.SegmentRange(int64(len(g.edges)), c.Rank(), ranks)
				dg, err := dgraph.Build(c, g.n, g.edges[lo:hi], nil)
				if err != nil {
					return err
				}
				for phase := 0; phase < 4; phase++ {
					whole, err := dg.GatherToRoot()
					if err != nil {
						return err
					}
					cfg := Baseline()
					cfg.fill()
					st, err := newPhaseState(dg, &cfg, phase, &StepTimes{})
					if err != nil {
						return err
					}
					var hookErr error
					prevQ := math.Inf(-1)
					cfg.Progress = func(ev ProgressEvent) {
						if ev.Kind != ProgressIteration || hookErr != nil {
							return
						}
						var labels []int64
						if labels, hookErr = st.gatherLabels(); hookErr != nil || c.Rank() != 0 {
							return
						}
						checked++
						if ev.Modularity < prevQ {
							rollbacks++
						}
						prevQ = ev.Modularity
						cert, err := seq.Certify(whole.N, whole.Stream(), labels)
						if err != nil || cert.Q != ev.Modularity {
							t.Errorf("%s ranks=%d phase %d iteration %d: reported Q %.17g, labels give %.17g (%v)",
								g.name, ranks, phase, ev.Iteration, ev.Modularity, cert.Q, err)
						}
					}
					if _, err := st.iterate(cfg.Tau); err != nil {
						return err
					}
					if hookErr != nil {
						return hookErr
					}
					ndg, _, err := st.rebuild()
					if err != nil {
						return err
					}
					if ndg.GlobalN == dg.GlobalN {
						break
					}
					dg = ndg
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s ranks=%d: %v", g.name, ranks, err)
			}
			if checked == 0 || (!g.float && rollbacks == 0) {
				t.Fatalf("%s ranks=%d: %d iterations checked, %d of them lowered Q", g.name, ranks, checked, rollbacks)
			}
		}
	}
}

// TestRebuildRequestsMatchFullSort holds rebuildRequests' merge of the sorted
// live ghosts with the sorted live tail to a full sort of every live
// non-owned slot, split by owner, after every fetch of whole runs at 2–4
// ranks — among them fetches that ask for tail communities (asserted), so the
// merge has two inputs to interleave.
func TestRebuildRequestsMatchFullSort(t *testing.T) {
	tailFetches := 0
	for _, g := range slotGraphs() {
		for ranks := 2; ranks <= 4; ranks++ {
			tails, err := mpi.RunCollect(ranks, func(c *mpi.Comm) (int, error) {
				lo, hi := gio.SegmentRange(int64(len(g.edges)), c.Rank(), ranks)
				dg, err := dgraph.Build(c, g.n, g.edges[lo:hi], nil)
				if err != nil {
					return 0, err
				}
				tails := 0
				for phase := 0; phase < 4; phase++ {
					cfg := Baseline()
					cfg.fill()
					st, err := newPhaseState(dg, &cfg, phase, &StepTimes{})
					if err != nil {
						return 0, err
					}
					fetches := 0
					st.afterFetch = func() error {
						fetches++
						if err := requestsMatchFullSort(st); err != nil {
							return fmt.Errorf("phase %d fetch %d: %w", phase, fetches, err)
						}
						for _, r := range st.refs[st.dg.LocalN+int64(len(st.dg.Ghosts)):] {
							if r > 0 {
								tails++
								break
							}
						}
						return nil
					}
					if _, err := st.iterate(cfg.Tau); err != nil {
						return 0, err
					}
					ndg, _, err := st.rebuild()
					if err != nil {
						return 0, err
					}
					if ndg.GlobalN == dg.GlobalN {
						break
					}
					dg = ndg
				}
				return tails, nil
			})
			if err != nil {
				t.Fatalf("%s ranks=%d: %v", g.name, ranks, err)
			}
			for _, k := range tails {
				tailFetches += k
			}
		}
	}
	if tailFetches == 0 {
		t.Fatal("no fetch asked for a tail community")
	}
	t.Logf("%d fetches asked for a tail community", tailFetches)
}

// requestsMatchFullSort compares st's request lists with the live non-owned
// slots sorted by global ID and cut by owner.
func requestsMatchFullSort(st *phaseState) error {
	var live []liveRef
	for s := int32(st.dg.LocalN); int(s) < len(st.refs); s++ {
		if st.refs[s] > 0 {
			live = append(live, liveRef{gid: st.gidOf(s), slot: s})
		}
	}
	slices.SortFunc(live, func(a, b liveRef) int { return cmp.Compare(a.gid, b.gid) })
	wantGIDs := make([][]int64, len(st.reqGIDs))
	wantSlots := make([][]int32, len(st.reqGIDs))
	for _, r := range live {
		q := st.dg.Part.Owner(r.gid)
		wantGIDs[q] = append(wantGIDs[q], r.gid)
		wantSlots[q] = append(wantSlots[q], r.slot)
	}
	for q := range st.reqGIDs {
		if !slices.Equal(st.reqGIDs[q], wantGIDs[q]) || !slices.Equal(st.reqSlots[q], wantSlots[q]) {
			return fmt.Errorf("rank %d's request list is %v at slots %v, a full sort gives %v at %v",
				q, st.reqGIDs[q], st.reqSlots[q], wantGIDs[q], wantSlots[q])
		}
	}
	return nil
}
