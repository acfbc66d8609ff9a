package core

import (
	"fmt"
	"os"
	"path/filepath"

	"distlouvain/internal/ckpt"
	"distlouvain/internal/mpi"
	"distlouvain/internal/obsv"
)

// ckptStateVersion versions the *contents* of the Louvain sections inside a
// snapshot (the container format has its own version in internal/ckpt).
const ckptStateVersion = 1

// Snapshot section names. A rank snapshot carries the coarse graph in
// routable form (CSR re-expanded to arcs on resume), the cumulative
// original-vertex assignment, and the driver position.
const (
	secMeta     = "meta"     // driver position + shape/consistency fields
	secCSR      = "csr"      // coarse local CSR: index then (to, w) pairs
	secGhosts   = "ghosts"   // sorted ghost vertex IDs (cross-check only)
	secOrigComm = "origcomm" // original-vertex → community, this rank's range
	secHistory  = "history"  // []PhaseStat accumulated so far
)

// writeCheckpoint snapshots the run after the just-completed phase rs.phase
// and commits it world-wide. The protocol tolerates a crash at any point
// without ever shadowing the previous valid checkpoint:
//
//  1. every rank writes its own snapshot atomically under a per-phase name,
//  2. AllOK fences: all ranks agree every snapshot landed (or all abort),
//  3. rank 0 atomically renames the new manifest into place,
//  4. AllOK fences again, then old phase files are pruned best-effort.
//
// A failure before step 3 leaves the previous manifest (and its files)
// intact; a failure after step 3 leaves the new checkpoint complete.
func (rs *runState) writeCheckpoint() error {
	sp := rs.cfg.Tracer.Begin(obsv.KindCheckpoint, "checkpoint")
	defer sp.End()
	c := rs.comm
	dir := rs.cfg.CheckpointDir
	completed := rs.phase + 1 // phases finished so far

	wsp := rs.cfg.Tracer.Begin(obsv.KindStep, "ckpt-write")
	err := func() error {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		secs, err := rs.encodeSections(completed)
		if err != nil {
			return err
		}
		return ckpt.WriteSnapshot(filepath.Join(dir, ckpt.RankFileName(completed, c.Rank())), secs)
	}()
	wsp.End()
	if err = c.AllOK(err); err != nil {
		return err
	}

	if c.Rank() == 0 {
		m := &ckpt.Manifest{
			Version:    ckpt.ManifestVersion,
			WorldSize:  c.Size(),
			ConfigHash: string(rs.cfg.Fingerprint()),
			Phase:      completed,
			OrigN:      rs.origN,
			CoarseN:    rs.cur.GlobalN,
			Files:      make([]string, c.Size()),
		}
		for r := range m.Files {
			m.Files[r] = ckpt.RankFileName(completed, r)
		}
		err = ckpt.WriteManifest(dir, m)
	}
	if err = c.AllOK(err); err != nil {
		return err
	}

	// The manifest is committed; retain the trailing CheckpointKeep phases
	// (older snapshots give a supervisor a fallback if the newest file is
	// later found damaged) and GC everything before them.
	ckpt.PruneRank(dir, c.Rank(), completed, rs.cfg.CheckpointKeep)
	rs.cfg.progress(ProgressEvent{Kind: ProgressCheckpoint, Phase: completed, Modularity: rs.prevQ, Vertices: rs.cur.GlobalN})
	return nil
}

// encodeSections serializes this rank's share of the run state.
func (rs *runState) encodeSections(completed int) ([]ckpt.Section, error) {
	dg := rs.cur
	c := rs.comm

	meta := mpi.AppendInt64(nil, ckptStateVersion)
	meta = mpi.AppendInt64(meta, int64(c.Size()))
	meta = mpi.AppendInt64(meta, int64(c.Rank()))
	meta = mpi.AppendInt64(meta, int64(completed))
	meta = mpi.AppendInt64(meta, int64(rs.res.TotalIterations))
	var ff int64
	if rs.forcedFinal {
		ff = 1
	}
	meta = mpi.AppendInt64(meta, ff)
	meta = mpi.AppendFloat64(meta, rs.prevQ)
	meta = mpi.AppendInt64(meta, rs.origN)
	meta = mpi.AppendInt64(meta, rs.res.LocalBase)
	meta = mpi.AppendInt64(meta, int64(len(rs.res.LocalComm)))
	meta = mpi.AppendInt64(meta, dg.GlobalN)
	meta = mpi.AppendInt64(meta, dg.Base)
	meta = mpi.AppendInt64(meta, dg.LocalN)
	meta = mpi.AppendFloat64(meta, dg.M2)

	csr := make([]byte, 0, 8*(len(dg.Index)+2*len(dg.Edges)))
	csr = mpi.AppendInt64s(csr, dg.Index)
	for _, e := range dg.Edges {
		csr = mpi.AppendInt64(csr, e.To)
		csr = mpi.AppendFloat64(csr, e.W)
	}

	hist, err := encodeHistory(rs.res.Phases)
	if err != nil {
		return nil, err
	}

	return []ckpt.Section{
		{Name: secMeta, Data: meta},
		{Name: secCSR, Data: csr},
		{Name: secGhosts, Data: mpi.EncodeInt64s(dg.Ghosts)},
		{Name: secOrigComm, Data: mpi.EncodeInt64s(rs.res.LocalComm)},
		{Name: secHistory, Data: hist},
	}, nil
}

// ckptMeta is the decoded secMeta section.
type ckptMeta struct {
	worldSize, rank int
	completed       int
	totalIterations int
	forcedFinal     bool
	prevQ           float64
	origN           int64
	origBase        int64
	origLocalN      int64
	coarseN         int64
	coarseBase      int64
	coarseLocalN    int64
	m2              float64
}

func decodeMeta(data []byte) (*ckptMeta, error) {
	d := mpi.NewDecoder(data)
	ver, err := d.Int64()
	if err != nil {
		return nil, err
	}
	if ver != ckptStateVersion {
		return nil, fmt.Errorf("state version %d, this build reads %d", ver, ckptStateVersion)
	}
	var m ckptMeta
	ws, err := d.Int64()
	if err != nil {
		return nil, err
	}
	rk, err := d.Int64()
	if err != nil {
		return nil, err
	}
	cp, err := d.Int64()
	if err != nil {
		return nil, err
	}
	ti, err := d.Int64()
	if err != nil {
		return nil, err
	}
	ff, err := d.Int64()
	if err != nil {
		return nil, err
	}
	m.prevQ, err = d.Float64()
	if err != nil {
		return nil, err
	}
	m.origN, err = d.Int64()
	if err != nil {
		return nil, err
	}
	m.origBase, err = d.Int64()
	if err != nil {
		return nil, err
	}
	m.origLocalN, err = d.Int64()
	if err != nil {
		return nil, err
	}
	m.coarseN, err = d.Int64()
	if err != nil {
		return nil, err
	}
	m.coarseBase, err = d.Int64()
	if err != nil {
		return nil, err
	}
	m.coarseLocalN, err = d.Int64()
	if err != nil {
		return nil, err
	}
	m.m2, err = d.Float64()
	if err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", d.Remaining())
	}
	m.worldSize, m.rank = int(ws), int(rk)
	m.completed, m.totalIterations = int(cp), int(ti)
	m.forcedFinal = ff != 0
	if m.worldSize <= 0 || m.rank < 0 || m.rank >= m.worldSize {
		return nil, fmt.Errorf("rank %d of world %d out of range", m.rank, m.worldSize)
	}
	if m.completed <= 0 || m.origN <= 0 || m.coarseN <= 0 ||
		m.origLocalN < 0 || m.coarseLocalN < 0 || m.origBase < 0 || m.coarseBase < 0 {
		return nil, fmt.Errorf("nonsensical shape (completed=%d origN=%d coarseN=%d)", m.completed, m.origN, m.coarseN)
	}
	return &m, nil
}

// exit-reason wire codes for the history section.
var exitCodes = map[ExitReason]int64{"": 0, ExitTau: 1, ExitETC: 2, ExitMaxIter: 3}
var exitNames = map[int64]ExitReason{0: "", 1: ExitTau, 2: ExitETC, 3: ExitMaxIter}

func encodeHistory(phases []PhaseStat) ([]byte, error) {
	buf := mpi.AppendInt64(nil, int64(len(phases)))
	for _, ps := range phases {
		code, ok := exitCodes[ps.Exit]
		if !ok {
			return nil, fmt.Errorf("unknown exit reason %q", ps.Exit)
		}
		buf = mpi.AppendInt64(buf, ps.Vertices)
		buf = mpi.AppendInt64(buf, int64(ps.Iterations))
		buf = mpi.AppendFloat64(buf, ps.Modularity)
		buf = mpi.AppendFloat64(buf, ps.Tau)
		buf = mpi.AppendInt64(buf, int64(len(ps.QTrajectory)))
		buf = mpi.AppendFloat64s(buf, ps.QTrajectory)
		buf = mpi.AppendInt64(buf, int64(len(ps.MovesTrajectory)))
		buf = mpi.AppendInt64s(buf, ps.MovesTrajectory)
		buf = mpi.AppendFloat64(buf, ps.InactiveFrac)
		buf = mpi.AppendInt64(buf, code)
		buf = mpi.AppendInt64(buf, 0) // reserved: once the phase's color count
	}
	return buf, nil
}

func decodeHistory(data []byte) ([]PhaseStat, error) {
	d := mpi.NewDecoder(data)
	n, err := d.Int64()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > int64(d.Remaining()) {
		return nil, fmt.Errorf("implausible phase count %d", n)
	}
	out := make([]PhaseStat, n)
	for i := range out {
		ps := &out[i]
		if ps.Vertices, err = d.Int64(); err != nil {
			return nil, err
		}
		it, err := d.Int64()
		if err != nil {
			return nil, err
		}
		ps.Iterations = int(it)
		if ps.Modularity, err = d.Float64(); err != nil {
			return nil, err
		}
		if ps.Tau, err = d.Float64(); err != nil {
			return nil, err
		}
		qn, err := d.Int64()
		if err != nil {
			return nil, err
		}
		if qn < 0 || qn*8 > int64(d.Remaining()) {
			return nil, fmt.Errorf("implausible trajectory length %d", qn)
		}
		if ps.QTrajectory, err = d.Float64s(int(qn)); err != nil {
			return nil, err
		}
		mn, err := d.Int64()
		if err != nil {
			return nil, err
		}
		if mn < 0 || mn*8 > int64(d.Remaining()) {
			return nil, fmt.Errorf("implausible trajectory length %d", mn)
		}
		if ps.MovesTrajectory, err = d.Int64s(int(mn)); err != nil {
			return nil, err
		}
		if ps.InactiveFrac, err = d.Float64(); err != nil {
			return nil, err
		}
		code, err := d.Int64()
		if err != nil {
			return nil, err
		}
		name, ok := exitNames[code]
		if !ok {
			return nil, fmt.Errorf("unknown exit code %d", code)
		}
		ps.Exit = name
		if _, err := d.Int64(); err != nil { // reserved word, see encodeHistory
			return nil, err
		}
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", d.Remaining())
	}
	return out, nil
}
