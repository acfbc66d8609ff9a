package core

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"

	"distlouvain/internal/ckpt"
	"distlouvain/internal/dgraph"
	"distlouvain/internal/mpi"
	"distlouvain/internal/obsv"
)

// ckptStateVersion versions the *contents* of the Louvain sections inside a
// snapshot (the container format has its own version in internal/ckpt).
// Version 2 varint-codes the CSR, ghost and label sections; version 3 has
// one weight form, a uvarint, for graphs whose weights are all integers.
const ckptStateVersion = 3

// Snapshot section names. A rank snapshot carries the coarse graph in
// routable form (CSR re-expanded to arcs on resume), the cumulative
// original-vertex assignment, and the driver position.
const (
	secMeta     = "meta"     // driver position + shape/consistency fields
	secCSR      = "csr"      // coarse local CSR: row lengths, then (target gap, weight) per arc
	secGhosts   = "ghosts"   // sorted ghost vertex IDs as one delta stream (cross-check only)
	secOrigComm = "origcomm" // original-vertex → community, this rank's range, a uvarint each
	secHistory  = "history"  // []PhaseStat accumulated so far
)

// maxWeight bounds a csr weight: every weight is an integer (the scale rule,
// graph.Weights.Scale) in [0, 2⁵³], which converts to uint64 and back
// unchanged. 0 is one: a tiny input weight can round to it.
const maxWeight = 1 << 53

// metaBytes is the size of the meta section: fourteen fixed64 words.
const metaBytes = 14 * 8

// checkpointer commits a run's phase-boundary snapshots. Each commit is
// synchronous and tolerates a crash at any point without ever shadowing the
// previous valid checkpoint:
//
//  1. every rank encodes its snapshot and writes it atomically under a
//     per-phase name (temp + fsync + rename + directory fsync),
//  2. AllOK fences: every rank's file has landed (or all abort),
//  3. rank 0 atomically renames the new manifest into place,
//  4. AllOK fences again: the commit is durable everywhere; each rank
//     reports it and prunes behind it.
//
// A failure before step 3 leaves the previous manifest and its files
// intact; a failure after it leaves the new checkpoint complete. Either
// way no rank starts the next phase before the commit, so a crash in phase
// k + 1 resumes from k.
type checkpointer struct {
	rs      *runState
	scratch []byte // section encode buffer, reused across boundaries
}

// newCheckpointer returns the run's checkpointer, nil when the run takes no
// snapshots.
func newCheckpointer(rs *runState) *checkpointer {
	if rs.cfg.CheckpointDir == "" {
		return nil
	}
	return &checkpointer{rs: rs}
}

// commit snapshots the phase rs.phase just completed and returns once its
// manifest is durable and every rank knows it.
func (ck *checkpointer) commit() error {
	rs := ck.rs
	c := rs.comm
	dir := rs.cfg.CheckpointDir
	completed := rs.phase + 1
	sp := rs.cfg.Tracer.Begin(obsv.KindCheckpoint, "checkpoint")
	defer sp.End()

	if err := c.AllOK(ck.write(completed)); err != nil {
		return err
	}
	var err error
	if c.Rank() == 0 {
		err = ckpt.WriteManifest(dir, rs.manifest(completed))
	}
	if err = c.AllOK(err); err != nil {
		return err
	}
	rs.cfg.progress(ProgressEvent{Kind: ProgressCheckpoint, Phase: completed, Modularity: rs.prevQ, Vertices: rs.cur.GlobalN})
	ckpt.PruneRank(dir, c.Rank(), completed, rs.cfg.CheckpointKeep)
	return nil
}

// write lands this rank's snapshot after completed phases under its
// per-phase name, the sections encoded into the reused scratch buffer.
func (ck *checkpointer) write(completed int) error {
	rs := ck.rs
	dir := rs.cfg.CheckpointDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	secs, scratch, err := rs.encodeSections(ck.scratch, completed)
	ck.scratch = scratch
	if err != nil {
		return err
	}
	return ckpt.WriteSnapshot(filepath.Join(dir, ckpt.RankFileName(completed, rs.comm.Rank())), secs)
}

// manifest is the manifest that commits the snapshots after completed phases.
func (rs *runState) manifest(completed int) *ckpt.Manifest {
	size := rs.comm.Size()
	m := &ckpt.Manifest{
		Version:    ckpt.ManifestVersion,
		WorldSize:  size,
		ConfigHash: string(rs.cfg.Fingerprint()),
		Phase:      completed,
		OrigN:      rs.origN,
		CoarseN:    rs.cur.GlobalN,
		Files:      make([]string, size),
	}
	for r := range m.Files {
		m.Files[r] = ckpt.RankFileName(completed, r)
	}
	return m
}

// encodeSections serializes this rank's share of the run state into buf,
// grown once to a bound on the whole, and returns the sections as
// sub-slices of it along with the buffer for reuse.
func (rs *runState) encodeSections(buf []byte, completed int) ([]ckpt.Section, []byte, error) {
	dg := rs.cur
	c := rs.comm
	m := ckptMeta{
		worldSize:       c.Size(),
		rank:            c.Rank(),
		completed:       completed,
		totalIterations: rs.res.TotalIterations,
		forcedFinal:     rs.forcedFinal,
		prevQ:           rs.prevQ,
		origN:           rs.origN,
		origBase:        rs.res.LocalBase,
		origLocalN:      int64(len(rs.res.LocalComm)),
		coarseN:         dg.GlobalN,
		coarseBase:      dg.Base,
		coarseLocalN:    dg.LocalN,
		m2:              dg.M2,
	}
	csrBytes, err := csrSize(dg)
	if err != nil {
		return nil, buf, err
	}
	bound := metaBytes + csrBytes +
		uvarintLen(uint64(len(dg.Ghosts))) + len(dg.Ghosts)*uvarintLen(2*uint64(dg.GlobalN)) +
		len(rs.res.LocalComm)*uvarintLen(uint64(dg.GlobalN)) +
		historyBytes(rs.res.Phases)
	buf = slices.Grow(buf[:0], bound)

	names := [...]string{secMeta, secCSR, secGhosts, secOrigComm, secHistory}
	var ends [len(names)]int
	buf = m.append(buf)
	ends[0] = len(buf)
	buf = appendCSR(buf, dg)
	ends[1] = len(buf)
	buf = mpi.AppendDeltaInt64s(buf, dg.Ghosts)
	ends[2] = len(buf)
	buf = appendLabels(buf, rs.res.LocalComm)
	ends[3] = len(buf)
	buf, err = appendHistory(buf, rs.res.Phases)
	ends[4] = len(buf)

	secs := make([]ckpt.Section, len(names))
	start := 0
	for i, end := range ends {
		secs[i] = ckpt.Section{Name: names[i], Data: buf[start:end]}
		start = end
	}
	return secs, buf, err
}

// uvarintLen is the LEB128 length of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// csrSize returns the exact encoded size of dg's csr section, and an error
// for a weight that is not an integer in [0, 2⁵³], which no graph holds.
func csrSize(dg *dgraph.DistGraph) (int, error) {
	size := 0
	for lv := int64(0); lv < dg.LocalN; lv++ {
		row, ws := dg.Row(lv)
		size += uvarintLen(uint64(len(row)))
		prev := int64(-1)
		for i, s := range row {
			to, w := dg.Target(s), ws[i]
			if !(w >= 0 && w <= maxWeight && w == math.Trunc(w)) {
				return 0, fmt.Errorf("ckpt: arc (%d,%d) weighs %g, not an integer in [0, 2^53]", dg.Global(lv), to, w)
			}
			size += uvarintLen(uint64(to-prev)) + uvarintLen(uint64(w))
			prev = to
		}
	}
	return size, nil
}

// appendCSR appends dg's csr section: every owned row's length as a uvarint,
// then per arc the uvarint gap to the row's previous target (the first from
// −1, so a gap is never 0 in a strictly ascending row) and the weight as a
// uvarint.
func appendCSR(buf []byte, dg *dgraph.DistGraph) []byte {
	for lv := int64(0); lv < dg.LocalN; lv++ {
		buf = mpi.AppendUvarint(buf, uint64(dg.Index[lv+1]-dg.Index[lv]))
	}
	for lv := int64(0); lv < dg.LocalN; lv++ {
		prev := int64(-1)
		row, ws := dg.Row(lv)
		for i, s := range row {
			to := dg.Target(s)
			buf = mpi.AppendUvarint(buf, uint64(to-prev))
			buf = mpi.AppendUvarint(buf, uint64(ws[i]))
			prev = to
		}
	}
	return buf
}

// decodeCSR re-expands a csr section into routable arcs for the localN rows
// from global vertex base on, in a coarseN-vertex graph.
func decodeCSR(data []byte, base, localN, coarseN int64) ([]dgraph.Arc, error) {
	if len(data) == 0 && localN > 0 {
		return nil, fmt.Errorf("empty section")
	}
	const minArc = 2 // a gap byte and a weight byte
	// Row lengths first: their sum sizes the arcs exactly, and a sum the
	// payload cannot hold is refused before anything is allocated for it.
	rows := mpi.NewDecoder(data)
	if localN > int64(rows.Remaining()) {
		return nil, fmt.Errorf("%d rows cannot fit %d bytes", localN, rows.Remaining())
	}
	var nArcs uint64
	for lv := int64(0); lv < localN; lv++ {
		n, err := rows.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("row %d length: %w", lv, err)
		}
		if room := uint64(rows.Remaining()) / minArc; n > room || nArcs+n > room {
			return nil, fmt.Errorf("rows through %d claim %d arcs; %d bytes hold at most %d", lv, nArcs+n, rows.Remaining(), room)
		}
		nArcs += n
	}
	arcsAt := len(data) - rows.Remaining()
	rows = mpi.NewDecoder(data[:arcsAt])
	d := mpi.NewDecoder(data[arcsAt:])
	arcs := make([]dgraph.Arc, 0, nArcs)
	for lv := int64(0); lv < localN; lv++ {
		n, _ := rows.Uvarint()
		prev := int64(-1)
		for k := uint64(0); k < n; k++ {
			gap, err := d.Uvarint()
			if err != nil {
				return nil, fmt.Errorf("row %d target: %w", lv, err)
			}
			if gap == 0 {
				return nil, fmt.Errorf("row %d: zero target gap (targets must ascend strictly)", lv)
			}
			if gap > uint64(coarseN) || prev+int64(gap) >= coarseN {
				return nil, fmt.Errorf("row %d: arc target past the last vertex %d", lv, coarseN-1)
			}
			prev += int64(gap)
			w, err := d.Uvarint()
			if err != nil {
				return nil, fmt.Errorf("row %d weight: %w", lv, err)
			}
			if w > maxWeight {
				return nil, fmt.Errorf("row %d: weight %d outside [0, 2^53]", lv, w)
			}
			arcs = append(arcs, dgraph.Arc{From: base + lv, To: prev, W: float64(w)})
		}
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", d.Remaining())
	}
	return arcs, nil
}

// appendLabels appends the origcomm section: one uvarint per label.
func appendLabels(buf []byte, labels []int64) []byte {
	for _, l := range labels {
		buf = mpi.AppendUvarint(buf, uint64(l))
	}
	return buf
}

// decodeLabels reads the n labels of the original vertices from base on,
// each a community of the coarseN-vertex graph.
func decodeLabels(data []byte, base, n, coarseN int64) ([]int64, error) {
	if n > int64(len(data)) {
		return nil, fmt.Errorf("%d labels cannot fit %d bytes", n, len(data))
	}
	d := mpi.NewDecoder(data)
	out := make([]int64, n)
	for i := range out {
		v, err := d.Uvarint()
		if err != nil {
			return nil, fmt.Errorf("label of vertex %d: %w", base+int64(i), err)
		}
		if v >= uint64(coarseN) {
			return nil, fmt.Errorf("label %d of vertex %d out of range [0,%d)", v, base+int64(i), coarseN)
		}
		out[i] = int64(v)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", d.Remaining())
	}
	return out, nil
}

// decodeGhosts reads the ghost table: IDs strictly ascending in [0, coarseN).
func decodeGhosts(data []byte, coarseN int64) ([]int64, error) {
	ghosts, err := mpi.DecodeDeltaInt64s(data)
	if err != nil {
		return nil, err
	}
	for i, g := range ghosts {
		if g < 0 || g >= coarseN || (i > 0 && g <= ghosts[i-1]) {
			return nil, fmt.Errorf("ghost %d is %d: not strictly ascending in [0,%d)", i, g, coarseN)
		}
	}
	return ghosts, nil
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

// append appends the meta section, metaBytes long.
func (m *ckptMeta) append(buf []byte) []byte {
	var ff int64
	if m.forcedFinal {
		ff = 1
	}
	buf = mpi.AppendInt64(buf, ckptStateVersion)
	buf = mpi.AppendInt64(buf, int64(m.worldSize))
	buf = mpi.AppendInt64(buf, int64(m.rank))
	buf = mpi.AppendInt64(buf, int64(m.completed))
	buf = mpi.AppendInt64(buf, int64(m.totalIterations))
	buf = mpi.AppendInt64(buf, ff)
	buf = mpi.AppendFloat64(buf, m.prevQ)
	buf = mpi.AppendInt64(buf, m.origN)
	buf = mpi.AppendInt64(buf, m.origBase)
	buf = mpi.AppendInt64(buf, m.origLocalN)
	buf = mpi.AppendInt64(buf, m.coarseN)
	buf = mpi.AppendInt64(buf, m.coarseBase)
	buf = mpi.AppendInt64(buf, m.coarseLocalN)
	return mpi.AppendFloat64(buf, m.m2)
}

func decodeMeta(data []byte) (*ckptMeta, error) {
	if len(data) != metaBytes {
		return nil, fmt.Errorf("%d bytes, want %d", len(data), metaBytes)
	}
	w, _ := mpi.DecodeInt64s(data)
	if w[0] != ckptStateVersion {
		return nil, fmt.Errorf("state version %d, this build reads %d", w[0], ckptStateVersion)
	}
	m := ckptMeta{
		worldSize:       int(w[1]),
		rank:            int(w[2]),
		completed:       int(w[3]),
		totalIterations: int(w[4]),
		forcedFinal:     w[5] != 0,
		prevQ:           math.Float64frombits(uint64(w[6])),
		origN:           w[7],
		origBase:        w[8],
		origLocalN:      w[9],
		coarseN:         w[10],
		coarseBase:      w[11],
		coarseLocalN:    w[12],
		m2:              math.Float64frombits(uint64(w[13])),
	}
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

// historyBytes is the size appendHistory gives phases: a count, then nine
// words per phase plus its two trajectories.
func historyBytes(phases []PhaseStat) int {
	words := 1
	for _, ps := range phases {
		words += 9 + len(ps.QTrajectory) + len(ps.MovesTrajectory)
	}
	return 8 * words
}

func appendHistory(buf []byte, phases []PhaseStat) ([]byte, error) {
	buf = mpi.AppendInt64(buf, int64(len(phases)))
	for _, ps := range phases {
		code, ok := exitCodes[ps.Exit]
		if !ok {
			return buf, fmt.Errorf("unknown exit reason %q", ps.Exit)
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
		if _, err := d.Int64(); err != nil { // reserved word, see appendHistory
			return nil, err
		}
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", d.Remaining())
	}
	return out, nil
}
