package core

import (
	"fmt"
	"math"
	"path/filepath"

	"distlouvain/internal/ckpt"
	"distlouvain/internal/dgraph"
	"distlouvain/internal/gio"
	"distlouvain/internal/mpi"
	"distlouvain/internal/obsv"
	"distlouvain/internal/partition"
)

// Resume continues a checkpointed run from the latest committed phase
// boundary. Every rank of c calls Resume with the same directory and a
// Config whose trajectory hash (Config.Hash) matches the one the checkpoint
// was taken under; performance knobs (Threads, checkpoint cadence, …) may
// differ freely.
//
// The world size may differ from the checkpointing run's ("elastic"
// resume): snapshot files are split across the new ranks, the coarse graph
// is rebuilt by replaying each file's CSR through the arc shuffle, and the
// original-vertex assignment is redistributed to the new ownership ranges.
// Because every phase-boundary quantity is an exact (order-independent for
// integer weights) global value and the per-phase randomness hashes global
// vertex IDs, the resumed run retraces the uninterrupted run's trajectory
// regardless of the new rank count.
func Resume(c *mpi.Comm, dir string, cfg Config) (*Result, error) {
	cfg.fill()
	p := c.Size()
	rank := c.Rank()

	// The load span closes just before control enters the shared run loop;
	// an error while loading leaves it open (visible via Tracer.Path).
	lsp := cfg.Tracer.Begin(obsv.KindCheckpoint, "resume-load")

	// Rank 0 reads and validates the manifest; a status byte leads the
	// broadcast so a root-side failure aborts every rank instead of
	// deadlocking the world.
	var payload []byte
	var rootErr error
	if rank == 0 {
		var man *ckpt.Manifest
		man, rootErr = ckpt.ReadManifest(dir)
		if rootErr == nil && man.ConfigHash != string(cfg.Fingerprint()) {
			rootErr = fmt.Errorf("ckpt: config fingerprint %s does not match checkpoint's %s: the snapshot encodes a trajectory this configuration would not produce", cfg.Fingerprint(), man.ConfigHash)
		}
		if rootErr == nil {
			for r, f := range man.Files {
				if f != ckpt.RankFileName(man.Phase, r) {
					rootErr = fmt.Errorf("ckpt: manifest file %q is not the canonical name for phase %d rank %d", f, man.Phase, r)
					break
				}
			}
		}
		if rootErr == nil {
			payload = []byte{0}
			payload = mpi.AppendInt64(payload, int64(man.WorldSize))
			payload = mpi.AppendInt64(payload, int64(man.Phase))
			payload = mpi.AppendInt64(payload, man.OrigN)
			payload = mpi.AppendInt64(payload, man.CoarseN)
		} else {
			payload = []byte{1}
		}
	}
	got, err := c.Bcast(0, payload)
	if err != nil {
		return nil, err
	}
	if len(got) < 1 || got[0] != 0 {
		if rootErr != nil {
			return nil, rootErr
		}
		return nil, fmt.Errorf("ckpt: rank 0 failed to load the manifest in %s", dir)
	}
	d := mpi.NewDecoder(got[1:])
	ws, _ := d.Int64()
	ph, _ := d.Int64()
	origN, _ := d.Int64()
	coarseN, err := d.Int64()
	if err != nil {
		return nil, err
	}
	oldWorld, completed := int(ws), int(ph)

	// Each new rank loads a contiguous run of the old ranks' files. The
	// per-file AllOK fence turns any rank's decode failure into a
	// world-wide abort, so the fence schedule must be identical everywhere:
	// SegmentRange is a pure function, so every rank derives the maximum
	// load count locally and file-less iterations fence with a nil error.
	lo, hi := gio.SegmentRange(int64(oldWorld), rank, p)
	maxLoads := int64(0)
	for r := 0; r < p; r++ {
		rlo, rhi := gio.SegmentRange(int64(oldWorld), r, p)
		maxLoads = max(maxLoads, rhi-rlo)
	}
	var arcs []dgraph.Arc
	var segs []origSeg
	var meta0 *ckptMeta // first file's meta (driver position is global state)
	var savedGhosts []int64
	for i := int64(0); i < maxLoads; i++ {
		old := lo + i
		if old >= hi {
			if err := c.AllOK(nil); err != nil {
				return nil, err
			}
			continue
		}
		path := filepath.Join(dir, ckpt.RankFileName(completed, int(old)))
		m, fileArcs, seg, ghosts, err := loadRankSnapshot(path, int(old), oldWorld, completed, origN, coarseN)
		if err == nil && meta0 != nil && m.m2 != meta0.m2 {
			err = fmt.Errorf("ckpt: %s: M2 %g disagrees with sibling snapshot's %g", path, m.m2, meta0.m2)
		}
		if err2 := c.AllOK(err); err2 != nil {
			return nil, err2
		}
		if meta0 == nil {
			meta0 = m
		}
		arcs = append(arcs, fileArcs...)
		segs = append(segs, seg)
		savedGhosts = ghosts
	}

	// Driver position and history are global state; take rank 0's copy so
	// file-less ranks get them too. Rank 0 always holds old rank 0's file.
	var drv []byte
	if rank == 0 {
		var ff int64
		if meta0.forcedFinal {
			ff = 1
		}
		drv = mpi.AppendFloat64(nil, meta0.prevQ)
		drv = mpi.AppendInt64(drv, ff)
		drv = mpi.AppendInt64(drv, int64(meta0.totalIterations))
		hist, err := readHistorySection(filepath.Join(dir, ckpt.RankFileName(completed, 0)))
		if err = c.AllOK(err); err != nil {
			return nil, err
		}
		drv = append(drv, hist...)
	} else if err := c.AllOK(nil); err != nil {
		return nil, err
	}
	drv, err = c.Bcast(0, drv)
	if err != nil {
		return nil, err
	}
	dd := mpi.NewDecoder(drv)
	prevQ, _ := dd.Float64()
	ff, _ := dd.Int64()
	ti, err := dd.Int64()
	if err != nil {
		return nil, err
	}
	history, err := decodeHistory(drv[24:])
	if err != nil {
		return nil, fmt.Errorf("ckpt: history section: %w", err)
	}

	// Replay the coarse graph through the arc shuffle onto the new world.
	// The rebuilt partition is exactly what a fresh p-rank run's rebuild
	// would have produced at this phase boundary.
	part := partition.ByVertexCount(coarseN, p)
	ndg, err := dgraph.BuildFromArcs(c, coarseN, part, arcs)
	if err != nil {
		return nil, fmt.Errorf("ckpt: rebuilding coarse graph: %w", err)
	}
	var savedM2 float64
	if meta0 != nil {
		savedM2 = meta0.m2
	}
	savedM2, err = c.AllreduceFloat64(savedM2, mpi.OpMax)
	if err != nil {
		return nil, err
	}
	if diff := math.Abs(ndg.M2 - savedM2); diff > 1e-9*math.Max(1, savedM2) {
		return nil, fmt.Errorf("ckpt: rebuilt graph weight 2m=%g disagrees with snapshot's %g", ndg.M2, savedM2)
	}
	if p == oldWorld && savedGhosts != nil {
		// Same world: the rebuilt ghost table must reproduce the snapshot's.
		err = nil
		if len(ndg.Ghosts) != len(savedGhosts) {
			err = fmt.Errorf("ckpt: rank %d rebuilt %d ghosts, snapshot had %d", rank, len(ndg.Ghosts), len(savedGhosts))
		} else {
			for i, g := range ndg.Ghosts {
				if g != savedGhosts[i] {
					err = fmt.Errorf("ckpt: rank %d ghost %d is %d, snapshot had %d", rank, i, g, savedGhosts[i])
					break
				}
			}
		}
		if err = c.AllOK(err); err != nil {
			return nil, err
		}
	}

	// Redistribute the cumulative original-vertex assignment to the new
	// ownership ranges.
	newBase, localComm, err := redistributeOrigComm(c, origN, segs)
	if err != nil {
		return nil, err
	}

	res := &Result{
		LocalBase:       newBase,
		LocalComm:       localComm,
		Communities:     coarseN,
		Phases:          history,
		TotalIterations: int(ti),
	}
	rs := &runState{
		comm:        c,
		cfg:         &cfg,
		cur:         ndg,
		origN:       origN,
		res:         res,
		phase:       completed,
		prevQ:       prevQ,
		forcedFinal: ff != 0,
		steps:       &StepTimes{},
	}
	lsp.End()
	return rs.runLoop()
}

// origSeg is one contiguous run of the original-vertex assignment recovered
// from a snapshot file.
type origSeg struct {
	base int64
	vals []int64
}

// loadRankSnapshot reads and fully validates one old rank's snapshot,
// returning its decoded meta, its coarse adjacency re-expanded to routable
// arcs, its original-assignment segment and its saved ghost table.
func loadRankSnapshot(path string, oldRank, oldWorld, completed int, origN, coarseN int64) (*ckptMeta, []dgraph.Arc, origSeg, []int64, error) {
	fail := func(err error) (*ckptMeta, []dgraph.Arc, origSeg, []int64, error) {
		return nil, nil, origSeg{}, nil, err
	}
	snap, err := ckpt.ReadSnapshot(path)
	if err != nil {
		return fail(err)
	}
	sec := func(name string) ([]byte, error) { return snap.Section(name) }

	mb, err := sec(secMeta)
	if err != nil {
		return fail(err)
	}
	m, err := decodeMeta(mb)
	if err != nil {
		return fail(fmt.Errorf("ckpt: %s: section %q: %w", path, secMeta, err))
	}
	switch {
	case m.rank != oldRank || m.worldSize != oldWorld:
		return fail(fmt.Errorf("ckpt: %s: holds rank %d/%d, manifest expects rank %d/%d", path, m.rank, m.worldSize, oldRank, oldWorld))
	case m.completed != completed:
		return fail(fmt.Errorf("ckpt: %s: holds phase %d, manifest expects %d", path, m.completed, completed))
	case m.origN != origN || m.coarseN != coarseN:
		return fail(fmt.Errorf("ckpt: %s: graph shape (%d→%d) disagrees with manifest (%d→%d)", path, m.origN, m.coarseN, origN, coarseN))
	case m.coarseBase+m.coarseLocalN > coarseN || m.origBase+m.origLocalN > origN:
		return fail(fmt.Errorf("ckpt: %s: owned range exceeds graph size", path))
	}

	cb, err := sec(secCSR)
	if err != nil {
		return fail(err)
	}
	d := mpi.NewDecoder(cb)
	index, err := d.Int64s(int(m.coarseLocalN) + 1)
	if err != nil {
		return fail(fmt.Errorf("ckpt: %s: section %q: %w", path, secCSR, err))
	}
	nArcs := index[m.coarseLocalN]
	if index[0] != 0 || nArcs < 0 || d.Remaining() != int(16*nArcs) {
		return fail(fmt.Errorf("ckpt: %s: section %q: index/payload mismatch (%d arcs, %d bytes left)", path, secCSR, nArcs, d.Remaining()))
	}
	arcs := make([]dgraph.Arc, 0, nArcs)
	for lv := int64(0); lv < m.coarseLocalN; lv++ {
		if index[lv+1] < index[lv] {
			return fail(fmt.Errorf("ckpt: %s: section %q: index not monotone at %d", path, secCSR, lv))
		}
		from := m.coarseBase + lv
		for k := index[lv]; k < index[lv+1]; k++ {
			to, _ := d.Int64()
			w, err := d.Float64()
			if err != nil {
				return fail(fmt.Errorf("ckpt: %s: section %q: %w", path, secCSR, err))
			}
			if to < 0 || to >= coarseN {
				return fail(fmt.Errorf("ckpt: %s: section %q: arc target %d out of range [0,%d)", path, secCSR, to, coarseN))
			}
			arcs = append(arcs, dgraph.Arc{From: from, To: to, W: w})
		}
	}

	ob, err := sec(secOrigComm)
	if err != nil {
		return fail(err)
	}
	vals, err := mpi.DecodeInt64s(ob)
	if err != nil {
		return fail(fmt.Errorf("ckpt: %s: section %q: %w", path, secOrigComm, err))
	}
	if int64(len(vals)) != m.origLocalN {
		return fail(fmt.Errorf("ckpt: %s: section %q: %d labels, meta says %d", path, secOrigComm, len(vals), m.origLocalN))
	}
	for i, v := range vals {
		if v < 0 || v >= coarseN {
			return fail(fmt.Errorf("ckpt: %s: section %q: label %d of vertex %d out of range [0,%d)", path, secOrigComm, v, m.origBase+int64(i), coarseN))
		}
	}

	gb, err := sec(secGhosts)
	if err != nil {
		return fail(err)
	}
	ghosts, err := mpi.DecodeInt64s(gb)
	if err != nil {
		return fail(fmt.Errorf("ckpt: %s: section %q: %w", path, secGhosts, err))
	}

	return m, arcs, origSeg{base: m.origBase, vals: vals}, ghosts, nil
}

// readHistorySection pulls just the raw history bytes out of a snapshot.
func readHistorySection(path string) ([]byte, error) {
	snap, err := ckpt.ReadSnapshot(path)
	if err != nil {
		return nil, err
	}
	return snap.Section(secHistory)
}

// redistributeOrigComm routes contiguous assignment segments (in old-world
// ownership ranges) to the new even vertex partition via one all-to-all.
// Every new rank verifies its range is covered exactly once.
func redistributeOrigComm(c *mpi.Comm, origN int64, segs []origSeg) (int64, []int64, error) {
	p := c.Size()
	part := partition.ByVertexCount(origN, p)
	send := make([][]byte, p)
	for _, s := range segs {
		v := s.base
		end := s.base + int64(len(s.vals))
		for v < end {
			q := part.Owner(v)
			_, qhi := part.Range(q)
			stop := min(end, qhi)
			chunk := s.vals[v-s.base : stop-s.base]
			send[q] = mpi.AppendInt64(send[q], v)
			send[q] = mpi.AppendInt64(send[q], int64(len(chunk)))
			send[q] = mpi.AppendInt64s(send[q], chunk)
			v = stop
		}
	}
	recv, err := c.Alltoall(send)
	if err != nil {
		return 0, nil, err
	}
	base, hiB := part.Range(c.Rank())
	out := make([]int64, hiB-base)
	filled := make([]bool, len(out))
	nFilled := 0
	err = func() error {
		for _, buf := range recv {
			d := mpi.NewDecoder(buf)
			for d.Remaining() > 0 {
				start, err := d.Int64()
				if err != nil {
					return err
				}
				cnt, err := d.Int64()
				if err != nil {
					return err
				}
				if start < base || cnt < 0 || start+cnt > base+int64(len(out)) {
					return fmt.Errorf("ckpt: assignment segment [%d,%d) outside owned range [%d,%d)", start, start+cnt, base, base+int64(len(out)))
				}
				vals, err := d.Int64s(int(cnt))
				if err != nil {
					return err
				}
				for i, v := range vals {
					at := start - base + int64(i)
					if filled[at] {
						return fmt.Errorf("ckpt: original vertex %d assigned twice during redistribution", start+int64(i))
					}
					filled[at] = true
					out[at] = v
					nFilled++
				}
			}
		}
		if nFilled != len(out) {
			return fmt.Errorf("ckpt: %d of %d owned original vertices unassigned after redistribution", len(out)-nFilled, len(out))
		}
		return nil
	}()
	if err = c.AllOK(err); err != nil {
		return 0, nil, err
	}
	return base, out, nil
}
