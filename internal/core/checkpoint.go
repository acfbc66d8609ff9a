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
// Version 2 varint-codes the CSR, ghost and label sections.
const ckptStateVersion = 2

// Snapshot section names. A rank snapshot carries the coarse graph in
// routable form (CSR re-expanded to arcs on resume), the cumulative
// original-vertex assignment, and the driver position.
const (
	secMeta     = "meta"     // driver position + shape/consistency fields
	secCSR      = "csr"      // coarse local CSR: weight form, row lengths, (target gap, weight) per arc
	secGhosts   = "ghosts"   // sorted ghost vertex IDs as one delta stream (cross-check only)
	secOrigComm = "origcomm" // original-vertex → community, this rank's range, a uvarint each
	secHistory  = "history"  // []PhaseStat accumulated so far
)

// The csr section's first byte says how its weights travel. Both forms are
// bit-exact: every integer in [1, 2⁵³] converts to uint64 and back unchanged.
const (
	weightsFixed64 byte = 0 // IEEE-754 bits, 8 bytes each
	weightsUvarint byte = 1 // every weight on the rank is an integer in [1, 2⁵³]

	maxUvarintWeight = 1 << 53
)

// metaBytes is the size of the meta section: fourteen fixed64 words.
const metaBytes = 14 * 8

// checkpointer takes a run's phase-boundary snapshots off the ranks'
// critical path. At a boundary a rank encodes its snapshot, hands the bytes
// to a writer goroutine (temp + fsync + rename + directory fsync) and goes on
// computing. The snapshot is committed at the next boundary, or when the run
// ends: one AllOK there says every rank's file has landed, and rank 0's next
// writer job renames the manifest that names them into place before it
// writes anything else. A crash before that rename resumes from the previous
// manifest, whose files are complete.
//
// At most one writer job is in flight per rank, and every way out of the run
// waits for it (close), so no writer outlives Run or Resume.
type checkpointer struct {
	rs      *runState
	scratch []byte // section encode buffer, reused across boundaries

	job       chan error // the in-flight writer job's outcome; nil when idle
	landing   *snapMark  // the snapshot the in-flight job writes
	listing   *snapMark  // the snapshot whose manifest the in-flight job commits (rank 0 writes it)
	committed int        // newest phase every rank knows has a durable manifest
}

// snapMark is one snapshot on its way to a commit.
type snapMark struct {
	phase int            // completed phases it captures
	event ProgressEvent  // reported once its manifest is durable
	man   *ckpt.Manifest // the manifest naming it; rank 0 only
}

// newCheckpointer returns the run's checkpointer, nil when the run takes no
// snapshots. A resumed run starts from the manifest it was loaded from.
func newCheckpointer(rs *runState) *checkpointer {
	if rs.cfg.CheckpointDir == "" {
		return nil
	}
	return &checkpointer{rs: rs, committed: rs.phase}
}

// boundary runs at a phase boundary the run continues past: it encodes this
// boundary's snapshot when one is due and moves the commit pipeline on.
func (ck *checkpointer) boundary(due bool) error {
	if !due && ck.job == nil {
		return nil
	}
	sp := ck.rs.cfg.Tracer.Begin(obsv.KindCheckpoint, "checkpoint")
	defer sp.End()
	var next *snapMark
	var data []byte
	var err error
	if due {
		next, data, err = ck.encode()
	}
	return ck.step(next, data, err)
}

// commitNow snapshots the phase just completed and returns once its manifest
// is durable and every rank knows it: the interrupt path, after which the
// run ends.
func (ck *checkpointer) commitNow() error {
	if err := ck.boundary(true); err != nil {
		return err
	}
	return ck.flush()
}

// flush drives the pipeline until no job is in flight: on return the newest
// snapshot's manifest is durable and every rank knows it.
func (ck *checkpointer) flush() error {
	if ck == nil || ck.job == nil {
		return nil
	}
	sp := ck.rs.cfg.Tracer.Begin(obsv.KindCheckpoint, "checkpoint")
	defer sp.End()
	for ck.job != nil {
		if err := ck.step(nil, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// close waits for the in-flight writer job, if any, and drops its outcome:
// the way out of a run that failed.
func (ck *checkpointer) close() {
	if ck != nil && ck.job != nil {
		<-ck.job
		ck.job = nil
	}
}

// step moves the pipeline one fence on and hands the writer its next job.
// The fence runs only while a job is in flight — state every rank shares, so
// every rank fences at the same boundaries — and its success means that job
// succeeded everywhere: its snapshot landed on every rank and rank 0 renamed
// its manifest into place. The next job commits the snapshot that just
// landed (rank 0), prunes behind the newest known commit, and writes next
// (nil for none); err, an encode failure, travels with it to the next fence.
func (ck *checkpointer) step(next *snapMark, data []byte, err error) error {
	rs := ck.rs
	var landed *snapMark
	if ck.job != nil {
		if jobErr := <-ck.job; err == nil {
			err = jobErr
		}
		ck.job = nil
		if err = rs.comm.AllOK(err); err != nil {
			return err
		}
		if ck.listing != nil {
			ck.committed = ck.listing.phase
			rs.cfg.progress(ck.listing.event)
		}
		landed = ck.landing
		ck.listing, ck.landing = nil, nil
	}
	w := writeJob{
		dir:       rs.cfg.CheckpointDir,
		rank:      rs.comm.Rank(),
		keep:      rs.cfg.CheckpointKeep,
		keepPhase: ck.committed,
		data:      data,
		err:       err,
	}
	if landed == nil && next == nil {
		// The end of a flush: nothing is left to commit or write, only the
		// prune behind the commit the fence just confirmed.
		ckpt.PruneRank(w.dir, w.rank, w.keepPhase, w.keep)
		return nil
	}
	if landed != nil {
		w.man = landed.man
	}
	if next != nil {
		w.path = filepath.Join(w.dir, ckpt.RankFileName(next.phase, w.rank))
	}
	ck.listing, ck.landing = landed, next
	job := make(chan error, 1)
	ck.job = job
	go func() { job <- w.run() }()
	return nil
}

// writeJob is what a writer goroutine does for one boundary, in order:
// commit a manifest (rank 0), prune behind the newest known commit, land a
// snapshot.
type writeJob struct {
	dir        string
	rank, keep int
	keepPhase  int            // newest phase known committed: PruneRank keeps it
	man        *ckpt.Manifest // to commit first; nil for none
	path       string         // where data lands; "" for no snapshot
	data       []byte
	err        error // an encode failure, reported instead of writing
}

func (w writeJob) run() error {
	if w.err != nil {
		return w.err
	}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	if w.man != nil {
		if err := ckpt.WriteManifest(w.dir, w.man); err != nil {
			return err
		}
	}
	// The snapshot rank 0 may be committing right now is newer than
	// keepPhase, so the prune spares it whatever the quota.
	ckpt.PruneRank(w.dir, w.rank, w.keepPhase, w.keep)
	if w.path == "" {
		return nil
	}
	return ckpt.WriteFile(w.path, w.data)
}

// encode snapshots this rank's share of the run after the phase rs.phase
// just completed: sections into the reused scratch buffer, the container
// into one exact-size allocation that the writer then owns.
func (ck *checkpointer) encode() (*snapMark, []byte, error) {
	rs := ck.rs
	c := rs.comm
	completed := rs.phase + 1
	mark := &snapMark{
		phase: completed,
		event: ProgressEvent{Kind: ProgressCheckpoint, Phase: completed, Modularity: rs.prevQ, Vertices: rs.cur.GlobalN},
	}
	if c.Rank() == 0 {
		mark.man = &ckpt.Manifest{
			Version:    ckpt.ManifestVersion,
			WorldSize:  c.Size(),
			ConfigHash: string(rs.cfg.Fingerprint()),
			Phase:      completed,
			OrigN:      rs.origN,
			CoarseN:    rs.cur.GlobalN,
			Files:      make([]string, c.Size()),
		}
		for r := range mark.man.Files {
			mark.man.Files[r] = ckpt.RankFileName(completed, r)
		}
	}
	secs, scratch, err := rs.encodeSections(ck.scratch, completed)
	ck.scratch = scratch
	if err != nil {
		return mark, nil, err
	}
	data, err := ckpt.EncodeSnapshot(secs)
	return mark, data, err
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
	form, csrBytes := csrLayout(dg)
	bound := metaBytes + csrBytes +
		uvarintLen(uint64(len(dg.Ghosts))) + len(dg.Ghosts)*uvarintLen(2*uint64(dg.GlobalN)) +
		len(rs.res.LocalComm)*uvarintLen(uint64(dg.GlobalN)) +
		historyBytes(rs.res.Phases)
	buf = slices.Grow(buf[:0], bound)

	names := [...]string{secMeta, secCSR, secGhosts, secOrigComm, secHistory}
	var ends [len(names)]int
	buf = m.append(buf)
	ends[0] = len(buf)
	buf = appendCSR(buf, dg, form)
	ends[1] = len(buf)
	buf = mpi.AppendDeltaInt64s(buf, dg.Ghosts)
	ends[2] = len(buf)
	buf = appendLabels(buf, rs.res.LocalComm)
	ends[3] = len(buf)
	buf, err := appendHistory(buf, rs.res.Phases)
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

// uvarintWeight reports whether w may travel as a uvarint.
func uvarintWeight(w float64) bool {
	return w >= 1 && w <= maxUvarintWeight && w == math.Trunc(w)
}

// csrLayout picks the csr section's weight form for dg's rows and returns
// its exact encoded size.
func csrLayout(dg *dgraph.DistGraph) (form byte, size int) {
	form = weightsUvarint
	size = 1
	wBytes := 0
	for lv := int64(0); lv < dg.LocalN; lv++ {
		row, ws := dg.Row(lv)
		size += uvarintLen(uint64(len(row)))
		prev := int64(-1)
		for i, s := range row {
			to := dg.Target(s)
			size += uvarintLen(uint64(to - prev))
			prev = to
			if form == weightsUvarint {
				if uvarintWeight(ws[i]) {
					wBytes += uvarintLen(uint64(ws[i]))
				} else {
					form = weightsFixed64
				}
			}
		}
	}
	if form == weightsFixed64 {
		wBytes = 8 * len(dg.Slot)
	}
	return form, size + wBytes
}

// appendCSR appends dg's csr section: the weight form byte, every owned row's
// length as a uvarint, then per arc the uvarint gap to the row's previous
// target (the first from −1, so a gap is never 0 in a strictly ascending
// row) and the weight in the given form.
func appendCSR(buf []byte, dg *dgraph.DistGraph, form byte) []byte {
	buf = append(buf, form)
	for lv := int64(0); lv < dg.LocalN; lv++ {
		buf = mpi.AppendUvarint(buf, uint64(dg.Index[lv+1]-dg.Index[lv]))
	}
	for lv := int64(0); lv < dg.LocalN; lv++ {
		prev := int64(-1)
		row, ws := dg.Row(lv)
		for i, s := range row {
			to := dg.Target(s)
			buf = mpi.AppendUvarint(buf, uint64(to-prev))
			prev = to
			if form == weightsUvarint {
				buf = mpi.AppendUvarint(buf, uint64(ws[i]))
			} else {
				buf = mpi.AppendFloat64(buf, ws[i])
			}
		}
	}
	return buf
}

// decodeCSR re-expands a csr section into routable arcs for the localN rows
// from global vertex base on, in a coarseN-vertex graph.
func decodeCSR(data []byte, base, localN, coarseN int64) ([]dgraph.Arc, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("empty section")
	}
	form := data[0]
	minArc := uint64(2) // a gap byte and a weight byte
	switch form {
	case weightsUvarint:
	case weightsFixed64:
		minArc = 9
	default:
		return nil, fmt.Errorf("unknown weight form %d", form)
	}
	// Row lengths first: their sum sizes the arcs exactly, and a sum the
	// payload cannot hold is refused before anything is allocated for it.
	rows := mpi.NewDecoder(data[1:])
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
	rows = mpi.NewDecoder(data[1:arcsAt])
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
			var w float64
			if form == weightsUvarint {
				u, err := d.Uvarint()
				if err != nil {
					return nil, fmt.Errorf("row %d weight: %w", lv, err)
				}
				if u == 0 || u > maxUvarintWeight {
					return nil, fmt.Errorf("row %d: weight %d outside [1, 2^53]", lv, u)
				}
				w = float64(u)
			} else if w, err = d.Float64(); err != nil {
				return nil, fmt.Errorf("row %d weight: %w", lv, err)
			}
			arcs = append(arcs, dgraph.Arc{From: base + lv, To: prev, W: w})
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
