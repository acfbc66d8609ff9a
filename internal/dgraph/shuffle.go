package dgraph

import (
	"encoding/binary"
	"fmt"
	"math"

	"distlouvain/internal/flat"
	"distlouvain/internal/mpi"
	"distlouvain/internal/partition"
)

// Arc record layouts. Every non-empty shuffle frame starts with one of these
// bytes, naming the fixed width of the records that follow; the sender picks
// the narrowest layout its writers' reservations allow. All fields are
// little-endian.
const (
	arcsUnit32   = 1 // uint32 source, uint32 target: every weight in the frame is 1.0
	arcsWeight32 = 2 // uint32 source, uint32 target, fixed64 weight
	arcs64       = 3 // int64 source, int64 target, fixed64 weight: past 2³² vertices
)

// recordWidth is the size of one record in each layout.
var recordWidth = [...]int{arcsUnit32: 8, arcsWeight32: 16, arcs64: 24}

// wideIDs reports whether a vertex space of n needs 64-bit records.
func wideIDs(n int64) bool { return n > 1<<32 }

// A Shuffle routes directed arcs to the owners of their sources and assembles
// what arrives: the whole construction pipeline of Build, BuildFromArcs and
// the coarsening of core. The sender works in two passes over its own input,
// both through ArcWriters: Reserve counts every owner's arcs, Alloc sizes one
// frame per owner exactly, Put encodes each arc at its writer's cursor in its
// owner's frame. Exchange ships the frames and assembles the rank's share.
//
// A Shuffle can be used again after Reset: its frames and the assembly's
// scratch keep their memory, so a caller that shuffles once per phase, as
// core's coarsening does, allocates them for its largest phase only. The
// graph an Exchange assembles keeps its shuffle, and Reshuffle hands it on:
// the frames Build or BuildFromArcs filled are the ones core's first
// coarsening writes.
type Shuffle struct {
	c       *mpi.Comm
	n       int64
	part    *partition.Partition
	frames  [][]byte // frames[q]: a layout byte, then the records rank q owns; empty when none
	writers []ArcWriter
	scratch assembly
}

// NewShuffle starts a shuffle over the vertex space [0, n) split by part (nil
// selects the even vertex split), filled by the given number of writers.
func NewShuffle(c *mpi.Comm, n int64, part *partition.Partition, writers int) (*Shuffle, error) {
	s := &Shuffle{c: c, frames: make([][]byte, c.Size())}
	if err := s.Reset(n, part, writers); err != nil {
		return nil, err
	}
	return s, nil
}

// Reshuffle returns the shuffle that assembled dg, Reset over [0, n) split by
// part with the given number of writers, or a new shuffle when dg has none
// (a graph not built by Exchange). The graph's arrays are not the shuffle's,
// so dg stays intact until an Exchange recycles it.
func (dg *DistGraph) Reshuffle(n int64, part *partition.Partition, writers int) (*Shuffle, error) {
	if dg.shuffle == nil {
		return NewShuffle(dg.Comm, n, part, writers)
	}
	return dg.shuffle, dg.shuffle.Reset(n, part, writers)
}

// Reset starts the next shuffle on s, over the vertex space [0, n) split by
// part (nil selects the even vertex split), with the same communicator, for
// the given number of writers. The frames and the assembly's scratch keep
// their memory whatever the writer count; no graph an Exchange returned
// refers to it.
func (s *Shuffle) Reset(n int64, part *partition.Partition, writers int) error {
	p := s.c.Size()
	if part == nil {
		part = partition.ByVertexCount(n, p)
	}
	if part.N() != n || part.Size() != p {
		return fmt.Errorf("dgraph: partition shape (N=%d, p=%d) does not match n=%d, p=%d",
			part.N(), part.Size(), n, p)
	}
	s.n, s.part = n, part
	if writers != len(s.writers) {
		s.writers = make([]ArcWriter, writers)
		shares := make([]share, writers*p)
		for i := range s.writers {
			s.writers[i] = ArcWriter{s: s, shares: shares[i*p : (i+1)*p : (i+1)*p]}
		}
	}
	for _, w := range s.writers {
		for q := range w.shares {
			w.shares[q] = share{unit: true}
		}
	}
	return nil
}

// Owner returns the rank an arc leaving v is routed to.
func (s *Shuffle) Owner(v int64) int { return s.part.Owner(v) }

// Writer returns writer i. Writers can fill one shuffle in parallel: each
// owns one range of every frame — the arcs it reserved, which it alone puts —
// and a frame holds the writers' ranges in writer order.
func (s *Shuffle) Writer(i int) *ArcWriter { return &s.writers[i] }

// Len returns the number of arcs reserved, by all writers for all owners.
func (s *Shuffle) Len() int {
	k := 0
	for _, w := range s.writers {
		for _, sh := range w.shares {
			k += sh.reserved
		}
	}
	return k
}

// An ArcWriter is one writer of a Shuffle.
type ArcWriter struct {
	s      *Shuffle
	shares []share // per owner
}

// share is one writer's range of one owner's frame.
type share struct {
	reserved int  // arcs reserved
	at, end  int  // write cursor and end of the range, once allocated
	unit     bool // every weight reserved is 1.0
}

// Reserve counts k arcs for owner q. unit says every one of them weighs
// exactly 1.0, so that the frame may travel without weights; a writer that
// does not know its weights yet passes false, and the frame keeps them.
func (w *ArcWriter) Reserve(q, k int, unit bool) {
	sh := &w.shares[q]
	sh.reserved += k
	sh.unit = sh.unit && unit
}

// Alloc sizes every frame exactly — the layout byte and the records all
// writers reserved — and hands each writer its range. A frame is allocated
// only when the one it replaces is too small; Put overwrites every byte.
func (s *Shuffle) Alloc() {
	wide := wideIDs(s.n)
	for q := range s.frames {
		k, unit := 0, true
		for _, w := range s.writers {
			k += w.shares[q].reserved
			unit = unit && w.shares[q].unit
		}
		if k == 0 {
			s.frames[q] = s.frames[q][:0]
			continue
		}
		layout := byte(arcsWeight32)
		switch {
		case wide:
			layout = arcs64
		case unit:
			layout = arcsUnit32
		}
		width := recordWidth[layout]
		s.frames[q] = resize(s.frames[q], 1+width*k)
		s.frames[q][0] = layout
		at := 1
		for _, w := range s.writers {
			sh := &w.shares[q]
			sh.at = at
			at += width * sh.reserved
			sh.end = at
		}
	}
}

// Put encodes the arc from→to of weight wt into owner q's frame, at this
// writer's cursor. Into a frame reserved as unit-weight only arcs of weight
// 1.0 may go.
func (w *ArcWriter) Put(q int, from, to int64, wt float64) {
	sh := &w.shares[q]
	f, i := w.s.frames[q], sh.at
	switch f[0] {
	case arcsUnit32:
		binary.LittleEndian.PutUint32(f[i:], uint32(from))
		binary.LittleEndian.PutUint32(f[i+4:], uint32(to))
		sh.at = i + 8
	case arcsWeight32:
		binary.LittleEndian.PutUint32(f[i:], uint32(from))
		binary.LittleEndian.PutUint32(f[i+4:], uint32(to))
		binary.LittleEndian.PutUint64(f[i+8:], math.Float64bits(wt))
		sh.at = i + 16
	default:
		binary.LittleEndian.PutUint64(f[i:], uint64(from))
		binary.LittleEndian.PutUint64(f[i+8:], uint64(to))
		binary.LittleEndian.PutUint64(f[i+16:], math.Float64bits(wt))
		sh.at = i + 24
	}
}

// Exchange ships every frame to its owner and assembles what arrives: the
// collective end of the shuffle. The self-owned frame never enters the
// transport: it is handed to the assembly as encoded, in this rank's slot of
// the receive order.
//
// The assembly consumes the frames it is handed: it rewrites their records in
// place. The received frames are this rank's (mpi.Message.Data belongs to the
// receiver), and Exchange releases them to the transport once assembled; the
// self frame is the shuffle's own, and the next Put rewrites it. The graph
// returned keeps s (Reshuffle).
//
// recycle, when not nil, is a graph the caller gives up — in core, the graph
// this one replaces. The assembly builds into its arrays wherever their
// capacity allows and allocates only the ones that must grow. On return
// recycle keeps its scalar fields (Comm, Part, GlobalN, M2, Base, LocalN) and
// no arrays and no shuffle, whether or not Exchange succeeded.
func (s *Shuffle) Exchange(recycle *DistGraph) (*DistGraph, error) {
	var spare DistGraph
	if recycle != nil {
		spare = *recycle
		*recycle = DistGraph{Comm: spare.Comm, Part: spare.Part, GlobalN: spare.GlobalN, M2: spare.M2, Base: spare.Base, LocalN: spare.LocalN}
	}
	for q := range s.frames {
		for _, w := range s.writers {
			if sh := w.shares[q]; sh.at != sh.end {
				return nil, fmt.Errorf("dgraph: a writer left %d bytes of its range for rank %d unwritten", sh.end-sh.at, q)
			}
		}
	}
	rank := s.c.Rank()
	self := s.frames[rank]
	s.frames[rank] = nil
	recv, err := s.c.Alltoall(s.frames) // copied before it returns: the frames stay s's
	s.frames[rank] = self
	if err != nil {
		return nil, err
	}
	recv[rank] = self
	dg, err := s.assemble(recv, &spare)
	recv[rank] = nil
	s.c.Release(recv...)
	if err != nil {
		return nil, err
	}
	dg.shuffle = s
	return dg, nil
}

// frameWidth validates a received frame's layout byte against the world's
// vertex space and its length against the layout, and returns the record
// width.
func frameWidth(f []byte, n int64) (int, error) {
	layout := f[0]
	if layout < arcsUnit32 || layout > arcs64 {
		return 0, fmt.Errorf("unknown layout byte %d", layout)
	}
	if (layout == arcs64) != wideIDs(n) {
		return 0, fmt.Errorf("layout %d is not the one a vertex space of %d selects", layout, n)
	}
	width := recordWidth[layout]
	if body := len(f) - 1; body == 0 || body%width != 0 {
		return 0, fmt.Errorf("a %d-byte body is not a positive whole number of %d-byte records", body, width)
	}
	return width, nil
}

// arcAt decodes the record at offset i of frame f's body, whatever the
// layout: the slow path, for error messages.
func arcAt(f []byte, i int) Arc {
	b := f[1+i:]
	switch f[0] {
	case arcsUnit32:
		return Arc{From: int64(binary.LittleEndian.Uint32(b)), To: int64(binary.LittleEndian.Uint32(b[4:])), W: 1}
	case arcsWeight32:
		return Arc{From: int64(binary.LittleEndian.Uint32(b)), To: int64(binary.LittleEndian.Uint32(b[4:])),
			W: math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))}
	}
	return Arc{From: int64(binary.LittleEndian.Uint64(b)), To: int64(binary.LittleEndian.Uint64(b[8:])),
		W: math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))}
}

// placer is the receiving side's per-row state while assemble places arcs.
// Pass 1 (count32, count64) validates each frame, histograms its sources into
// count (row lv at lv+1), interns every non-owned target into ghosts and
// rewrites each record it accepts in place: the source word becomes the local
// row, the target word the owned target's local index or — with ghostFlag set
// in the source word — the ghost's number in first-interned order. Pass 2
// (placeUnit32, placeWeight32, place64) reads the rewritten records and
// places each arc at its row's write cursor as its target's key, through
// ghostKey for a ghost, with its weight unless the frame is unit-weight: one
// hash probe per ghost arc in all, in pass 1. There is one loop per record
// width in each pass, so no arc pays for a layout branch.
type placer struct {
	base, hi, n int64
	count       []int64
	ghosts      *flat.Index
	nLow        int32   // the key of local vertex 0 (slotKeys)
	ghostKey    []int32 // by first-interned number: the ghost's key
	end         []int64
	slot        []int32 // the key, until assemble compacts the row
	w           []float64
}

// ghostFlag marks, in the source word of a record pass 1 rewrote, a target
// that is a ghost. A local row index is below 2³¹ (assemble checks LocalN
// against the slot space first), so the bit is free in every layout.
const ghostFlag = 1 << 31

// count32 is pass 1 over a 32-bit frame body with the given record stride. It
// returns the offset of the first record it refuses — a source not owned
// here, a target outside the vertex space — or −1; every record before that
// one has been rewritten.
func (p *placer) count32(body []byte, stride int) int {
	base, hi, n, count, ghosts := p.base, p.hi, p.n, p.count, p.ghosts
	for i := 0; i < len(body); i += stride {
		from := int64(binary.LittleEndian.Uint32(body[i:]))
		to := int64(binary.LittleEndian.Uint32(body[i+4:]))
		if from < base || from >= hi || to >= n {
			return i
		}
		lv := from - base
		count[lv+1]++
		if to >= base && to < hi {
			binary.LittleEndian.PutUint32(body[i:], uint32(lv))
			binary.LittleEndian.PutUint32(body[i+4:], uint32(to-base))
		} else {
			binary.LittleEndian.PutUint32(body[i:], uint32(lv)|ghostFlag)
			binary.LittleEndian.PutUint32(body[i+4:], uint32(ghosts.Intern(to)))
		}
	}
	return -1
}

// count64 is count32 for the 64-bit layout.
func (p *placer) count64(body []byte) int {
	base, hi, n, count, ghosts := p.base, p.hi, p.n, p.count, p.ghosts
	for i := 0; i < len(body); i += 24 {
		from := int64(binary.LittleEndian.Uint64(body[i:]))
		to := int64(binary.LittleEndian.Uint64(body[i+8:]))
		if from < base || from >= hi || to < 0 || to >= n {
			return i
		}
		lv := from - base
		count[lv+1]++
		if to >= base && to < hi {
			binary.LittleEndian.PutUint64(body[i:], uint64(lv))
			binary.LittleEndian.PutUint64(body[i+8:], uint64(to-base))
		} else {
			binary.LittleEndian.PutUint64(body[i:], uint64(lv)|ghostFlag)
			binary.LittleEndian.PutUint64(body[i+8:], uint64(ghosts.Intern(to)))
		}
	}
	return -1
}

// at decodes the source and target words of a record pass 1 rewrote into the
// arc's row and its target's key. Both words fit 32 bits in every layout once
// the slot space is checked.
func (p *placer) at(src, t uint32) (int64, int32) {
	if src&ghostFlag != 0 {
		return int64(src &^ ghostFlag), p.ghostKey[t]
	}
	return int64(src), p.nLow + int32(t)
}

// placeUnit32, placeWeight32 and place64 are pass 2, one per layout, over
// bodies pass 1 rewrote. A unit-weight record places its key alone.
func (p *placer) placeUnit32(body []byte) {
	end, slot := p.end, p.slot
	for i := 0; i < len(body); i += 8 {
		lv, key := p.at(binary.LittleEndian.Uint32(body[i:]), binary.LittleEndian.Uint32(body[i+4:]))
		j := end[lv]
		slot[j] = key
		end[lv] = j + 1
	}
}

func (p *placer) placeWeight32(body []byte) {
	end, slot, w := p.end, p.slot, p.w
	for i := 0; i < len(body); i += 16 {
		lv, key := p.at(binary.LittleEndian.Uint32(body[i:]), binary.LittleEndian.Uint32(body[i+4:]))
		j := end[lv]
		slot[j] = key
		w[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[i+8:]))
		end[lv] = j + 1
	}
}

func (p *placer) place64(body []byte) {
	end, slot, w := p.end, p.slot, p.w
	for i := 0; i < len(body); i += 24 {
		lv, key := p.at(uint32(binary.LittleEndian.Uint64(body[i:])), uint32(binary.LittleEndian.Uint64(body[i+8:])))
		j := end[lv]
		slot[j] = key
		w[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[i+16:]))
		end[lv] = j + 1
	}
}
