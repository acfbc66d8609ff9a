package core

import (
	"fmt"
	"slices"

	"distlouvain/internal/mpi"
)

// The owner round trip. Four steps of the method ask the owners of global IDs
// about them: the ghost-list setup of Algorithm 4, the (A_c, size) fetch of
// Algorithm 3, Step 4 of the rebuild (Fig. 1: the new IDs of remotely
// referenced communities) and the flatten of the original-vertex assignment.
// Each rank sends every owner one ascending list of the IDs it owns; the
// owner checks the list (decodeOwnerRequest) and, except in the ghost-list
// setup, answers it entry for entry in request order. The callers keep their
// reply encodings; this file owns the request side.

// tellOwners sends reqs[q] — global IDs owned by rank q, strictly ascending —
// to every rank q, as a delta stream (mpi.AppendDeltaInt64s), and hands what
// each peer q asked of this rank to take(q, lcs), in rank order: lcs are the
// local indices of the requested IDs, in request order, and are reused after
// take returns. kind names the exchange in errors. Collective.
func (st *phaseState) tellOwners(kind string, reqs [][]int64, take func(q int, lcs []int64) error) error {
	st.arena.Reset()
	frames := st.frames
	for q := range frames {
		bp := st.arena.Grab()
		*bp = mpi.AppendDeltaInt64s(*bp, reqs[q])
		frames[q] = *bp
	}
	recv, err := st.dg.Comm.Alltoall(frames)
	if err != nil {
		return fmt.Errorf("core: %s request: %w", kind, err)
	}
	defer st.dg.Comm.Release(recv...)
	for q, data := range recv {
		lcs, err := st.decodeOwnerRequest(st.ownerLcs[:0], kind, q, data)
		st.ownerLcs = lcs
		if err != nil {
			return err
		}
		if err := take(q, lcs); err != nil {
			return err
		}
	}
	return nil
}

// askOwners is tellOwners with an answer: answer(q, lcs, buf) appends this
// rank's reply to peer q's request to buf, and askOwners returns the replies
// to this rank's own requests, indexed by owner; the caller releases them
// (mpi.Comm.Release) once decoded. The request and reply buffers come from
// the per-phase arena. Collective.
func (st *phaseState) askOwners(kind string, reqs [][]int64, answer func(q int, lcs []int64, buf []byte) ([]byte, error)) ([][]byte, error) {
	frames := st.frames
	err := st.tellOwners(kind, reqs, func(q int, lcs []int64) error {
		bp := st.arena.Grab()
		var err error
		*bp, err = answer(q, lcs, *bp)
		frames[q] = *bp
		return err
	})
	if err != nil {
		return nil, err
	}
	replies, err := st.dg.Comm.Alltoall(frames)
	if err != nil {
		return nil, fmt.Errorf("core: %s reply: %w", kind, err)
	}
	return replies, nil
}

// decodeOwnerRequest is the one decoder of an owner request: the frame data
// peer q sent in the exchange kind. The frame must hold exactly one delta
// stream of strictly ascending global IDs, every one owned by this rank; the
// IDs' local indices are appended to dst. Anything else — a truncated or
// over-long frame, an ID out of order or owned elsewhere — is rejected with
// ErrMalformedFrame naming kind+" request" and q.
func (st *phaseState) decodeOwnerRequest(dst []int64, kind string, q int, data []byte) ([]int64, error) {
	d := mpi.NewDecoder(data)
	n, err := d.Uvarint()
	if err != nil {
		return dst, malformed(kind+" request", q, "%v", err)
	}
	// Every entry costs at least one byte: a count beyond the bytes left is
	// corrupt, and is rejected before anything is appended. Past that check
	// the count bounds what dst has to hold, so it grows once.
	if n > uint64(d.Remaining()) {
		return dst, malformed(kind+" request", q, "%d entries in %d bytes", n, d.Remaining())
	}
	dst = slices.Grow(dst, int(n))
	g := int64(0)
	for i := uint64(0); i < n; i++ {
		gap, err := d.Varint()
		if err != nil {
			return dst, malformed(kind+" request", q, "%v", err)
		}
		if i > 0 && gap <= 0 {
			return dst, malformed(kind+" request", q, "ID %d after %d: not ascending", g+gap, g)
		}
		if g += gap; !st.dg.IsLocal(g) {
			return dst, malformed(kind+" request", q, "non-owned ID %d", g)
		}
		dst = append(dst, g-st.dg.Base)
	}
	if d.Remaining() != 0 {
		return dst, malformed(kind+" request", q, "%d trailing bytes", d.Remaining())
	}
	return dst, nil
}
