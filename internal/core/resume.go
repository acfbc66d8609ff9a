package core

import (
	"errors"
	"fmt"
	"path/filepath"

	"distlouvain/internal/ckpt"
	"distlouvain/internal/dgraph"
	"distlouvain/internal/gio"
	"distlouvain/internal/mpi"
	"distlouvain/internal/obsv"
	"distlouvain/internal/partition"
)

// Start is how every rank of a run on an n-vertex input begins, and the one
// place that decides whether it continues a checkpoint: rank 0 reads
// cfg.CheckpointDir's manifest once and every rank acts on its broadcast
// verdict. No manifest (or no directory) is build followed by Run; a
// committed one is continued as Resume continues it; one of another
// Config.Fingerprint, or not of n vertices, fails on every rank.
func Start(c *mpi.Comm, n int64, cfg Config, build func(*mpi.Comm) (*dgraph.DistGraph, error)) (*Result, error) {
	if cfg.CheckpointDir != "" {
		cfg.fill()
		man, err := loadManifest(c, cfg.CheckpointDir, &cfg, n)
		if err != nil {
			return nil, err
		}
		if man != nil {
			return resume(c, cfg.CheckpointDir, cfg, man, cfg.Tracer.Begin(obsv.KindCheckpoint, "resume-load"))
		}
	}
	dg, err := build(c)
	if err != nil {
		return nil, err
	}
	return Run(dg, cfg)
}

// Resume continues a checkpointed run from the latest committed phase
// boundary. Every rank of c calls Resume with the same directory and a
// Config whose trajectory hash (Config.Fingerprint) matches the one the
// checkpoint was taken under; performance knobs (Threads, checkpoint
// cadence, …) may differ freely. A directory without a manifest fails with
// ckpt.ErrNoCheckpoint; Start starts such a run cold instead.
//
// The world size may differ from the checkpointing run's ("elastic"
// resume): snapshot files are split across the new ranks, the coarse graph
// is rebuilt by replaying each file's CSR through the arc shuffle, and the
// original-vertex assignment is redistributed to the new ownership ranges.
// Because every phase-boundary quantity is an exact global value — every
// weight is an integer and every sum of them exact in any order — and the
// per-phase randomness hashes global vertex IDs, the resumed run retraces
// the uninterrupted run's trajectory regardless of the new rank count.
func Resume(c *mpi.Comm, dir string, cfg Config) (*Result, error) {
	cfg.fill()
	// The load span closes just before control enters the shared run loop;
	// an error while loading leaves it open (visible via Tracer.Path).
	lsp := cfg.Tracer.Begin(obsv.KindCheckpoint, "resume-load")
	man, err := loadManifest(c, dir, &cfg, 0)
	if err == nil && man == nil {
		err = fmt.Errorf("%w in %s", ckpt.ErrNoCheckpoint, dir)
	}
	if err != nil {
		return nil, err
	}
	return resume(c, dir, cfg, man, lsp)
}

// loadManifest has rank 0 read and validate dir's manifest (against an
// n-vertex input, unless n is 0) and broadcasts the outcome behind a status
// byte — 0 committed, 1 failed, 2 none — so a root-side failure aborts every
// rank instead of deadlocking the world. No manifest returns nil everywhere.
func loadManifest(c *mpi.Comm, dir string, cfg *Config, n int64) (*ckpt.Manifest, error) {
	var payload []byte
	var rootErr error
	if c.Rank() == 0 {
		var man *ckpt.Manifest
		man, rootErr = ckpt.ReadManifest(dir)
		if rootErr == nil && man.ConfigHash != string(cfg.Fingerprint()) {
			rootErr = fmt.Errorf("ckpt: config fingerprint %s does not match checkpoint's %s: the snapshot encodes a trajectory this configuration would not produce", cfg.Fingerprint(), man.ConfigHash)
		}
		if rootErr == nil && n != 0 && man.OrigN != n {
			rootErr = fmt.Errorf("ckpt: the checkpoint in %s is of a %d-vertex graph, the input has %d", dir, man.OrigN, n)
		}
		if rootErr == nil {
			for r, f := range man.Files {
				if f != ckpt.RankFileName(man.Phase, r) {
					rootErr = fmt.Errorf("ckpt: manifest file %q is not the canonical name for phase %d rank %d", f, man.Phase, r)
					break
				}
			}
		}
		switch {
		case rootErr == nil:
			payload = []byte{0}
			payload = mpi.AppendInt64(payload, int64(man.WorldSize))
			payload = mpi.AppendInt64(payload, int64(man.Phase))
			payload = mpi.AppendInt64(payload, man.OrigN)
			payload = mpi.AppendInt64(payload, man.CoarseN)
		case errors.Is(rootErr, ckpt.ErrNoCheckpoint):
			payload, rootErr = []byte{2}, nil
		default:
			payload = []byte{1}
		}
	}
	got, err := c.Bcast(0, payload)
	if rootErr != nil {
		// A peer that got the failure may close the world before the
		// broadcast reaches every rank: rank 0 reports its own error, not
		// the closed transport.
		return nil, rootErr
	}
	if err != nil {
		return nil, err
	}
	if len(got) == 1 && got[0] == 2 {
		return nil, nil
	}
	if len(got) < 1 || got[0] != 0 {
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
	return &ckpt.Manifest{WorldSize: int(ws), Phase: int(ph), OrigN: origN, CoarseN: coarseN}, nil
}

// resume loads the checkpoint man describes onto c's world and runs the
// remaining phases. lsp is the open load span.
func resume(c *mpi.Comm, dir string, cfg Config, man *ckpt.Manifest, lsp obsv.SpanScope) (*Result, error) {
	p := c.Size()
	rank := c.Rank()
	oldWorld, completed := man.WorldSize, man.Phase
	origN, coarseN := man.OrigN, man.CoarseN

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
	var hist0 []byte // old rank 0's history section, kept from its load
	for i := int64(0); i < maxLoads; i++ {
		old := lo + i
		if old >= hi {
			if err := c.AllOK(nil); err != nil {
				return nil, err
			}
			continue
		}
		path := filepath.Join(dir, ckpt.RankFileName(completed, int(old)))
		snap, err := loadRankSnapshot(path, int(old), oldWorld, completed, origN, coarseN)
		if err == nil && meta0 != nil && snap.meta.m2 != meta0.m2 {
			err = fmt.Errorf("ckpt: %s: M2 %g disagrees with sibling snapshot's %g", path, snap.meta.m2, meta0.m2)
		}
		if err2 := c.AllOK(err); err2 != nil {
			return nil, err2
		}
		if meta0 == nil {
			meta0 = snap.meta
		}
		if old == 0 {
			hist0 = snap.history
		}
		if arcs == nil {
			arcs = snap.arcs
		} else {
			arcs = append(arcs, snap.arcs...)
		}
		segs = append(segs, snap.orig)
		savedGhosts = snap.ghosts
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
		drv = append(drv, hist0...)
	}
	drv, err := c.Bcast(0, drv)
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
		return nil, &ckpt.SectionError{Path: filepath.Join(dir, ckpt.RankFileName(completed, 0)), Section: secHistory, Err: err}
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
	if ndg.M2 != savedM2 {
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

// rankSnapshot is one old rank's decoded snapshot.
type rankSnapshot struct {
	meta    *ckptMeta
	arcs    []dgraph.Arc // its coarse adjacency, re-expanded to routable arcs
	orig    origSeg      // its original-assignment segment
	ghosts  []int64      // its saved ghost table
	history []byte       // its raw history section; only old rank 0's is read
}

// loadRankSnapshot reads and fully validates one old rank's snapshot.
func loadRankSnapshot(path string, oldRank, oldWorld, completed int, origN, coarseN int64) (*rankSnapshot, error) {
	snap, err := ckpt.ReadSnapshot(path)
	if err != nil {
		return nil, err
	}
	return decodeRankSnapshot(snap, oldRank, oldWorld, completed, origN, coarseN)
}

// decodeRankSnapshot decodes a verified container's sections and checks
// them against the shape the manifest declares. Every rejection is a
// *ckpt.SectionError naming the file and the section.
func decodeRankSnapshot(snap *ckpt.Snapshot, oldRank, oldWorld, completed int, origN, coarseN int64) (*rankSnapshot, error) {
	section := func(name string, decode func([]byte) error) error {
		data, err := snap.Section(name)
		if err != nil {
			return err // names the file and the section already
		}
		if err := decode(data); err != nil {
			return &ckpt.SectionError{Path: snap.Path(), Section: name, Err: err}
		}
		return nil
	}
	out := &rankSnapshot{}
	err := section(secMeta, func(data []byte) error {
		m, err := decodeMeta(data)
		if err != nil {
			return err
		}
		switch {
		case m.rank != oldRank || m.worldSize != oldWorld:
			return fmt.Errorf("holds rank %d/%d, manifest expects rank %d/%d", m.rank, m.worldSize, oldRank, oldWorld)
		case m.completed != completed:
			return fmt.Errorf("holds phase %d, manifest expects %d", m.completed, completed)
		case m.origN != origN || m.coarseN != coarseN:
			return fmt.Errorf("graph shape (%d→%d) disagrees with manifest (%d→%d)", m.origN, m.coarseN, origN, coarseN)
		case m.coarseLocalN > coarseN-m.coarseBase || m.origLocalN > origN-m.origBase:
			return fmt.Errorf("owned range exceeds graph size")
		}
		out.meta = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := out.meta
	out.orig.base = m.origBase
	if err := section(secCSR, func(data []byte) (err error) {
		out.arcs, err = decodeCSR(data, m.coarseBase, m.coarseLocalN, coarseN)
		return err
	}); err != nil {
		return nil, err
	}
	if err := section(secOrigComm, func(data []byte) (err error) {
		out.orig.vals, err = decodeLabels(data, m.origBase, m.origLocalN, coarseN)
		return err
	}); err != nil {
		return nil, err
	}
	if err := section(secGhosts, func(data []byte) (err error) {
		out.ghosts, err = decodeGhosts(data, coarseN)
		return err
	}); err != nil {
		return nil, err
	}
	if out.history, err = snap.Section(secHistory); err != nil {
		return nil, err
	}
	return out, nil
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
