package dgraph

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"distlouvain/internal/flat"
	"distlouvain/internal/gio"
	"distlouvain/internal/mpi"
)

// Arc record layouts. Every non-empty shuffle frame starts with one of these
// bytes, naming the fixed width of the records that follow. A writer starts
// each owner's records in the narrowest layout the shuffle allows and widens
// them once, when a weight other than 1.0 reaches them; a frame takes the
// widest of its writers' layouts. All fields are little-endian.
const (
	arcsUnit32   = 1 // uint32 source, uint32 target: every weight in the frame is 1.0
	arcsWeight32 = 2 // uint32 source, uint32 target, fixed64 weight
	arcs64       = 3 // int64 source, int64 target, fixed64 weight: past 2³² vertices
)

// recordWidth is the size of one record in each layout.
var recordWidth = [...]int{arcsUnit32: 8, arcsWeight32: 16, arcs64: 24}

// layoutBytes holds each layout byte, for a frame's first segment.
var layoutBytes = [...]byte{arcsUnit32: arcsUnit32, arcsWeight32: arcsWeight32, arcs64: arcs64}

// wideIDs reports whether a vertex space of n needs 64-bit records.
func wideIDs(n int64) bool { return n > 1<<32 }

// A writer cuts its segments for one owner from the shuffle's buffers, each
// as long as the writer's records for that owner so far, at least minSegment
// bytes, and at most the larger of minSegmentCap and the buffers' bytes over
// segmentShare times the number of open segments: a short frame wastes
// little, and the unused ends of the open segments keep about 1/segmentShare
// of the buffers from being cut, however many owners and writers share them.
const (
	minSegment    = 256
	minSegmentCap = 4 << 10
	segmentShare  = 64
)

// A Shuffle routes directed arcs to the owners of their sources and assembles
// what arrives: the whole construction pipeline of Build, BuildFromArcs and
// the coarsening of core. The sender makes one pass over its own input: Put
// appends each arc to its writer's segments for the arc's owner. Exchange
// ships every owner its frame — the layout byte, then writer 0's segments,
// writer 1's, …, each in write order — and assembles the rank's share.
//
// A Shuffle can be used again after Reset: the buffers its segments are cut
// from, and the assembly's scratch, keep their memory, and every segment is
// cut again from the start of them whatever owner it is for, so a caller that
// shuffles once per phase, as core's coarsening does, allocates only where a
// phase needs more bytes than any before it. The graph an Exchange assembles
// keeps its shuffle, and Reshuffle hands it on: the buffers Build or
// BuildFromArcs filled are the ones core's first coarsening writes.
type Shuffle struct {
	c       *mpi.Comm
	n       int64
	writers []ArcWriter
	out     [][][]byte // out[q]: the frame for rank q, as segments (frames)
	in      [][][]byte // in[q]: the frame from rank q, as segments (Exchange)
	buffers buffers
	scratch assembly
}

// NewShuffle starts a shuffle over the vertex space [0, n), split evenly
// (gio.SegmentRange), filled by the given number of writers. weighted says
// that every record is to carry its weight from the start, as core's coarse
// arcs do, whose weights are rarely 1.0; otherwise the records travel without
// weights until a weight other than 1.0 reaches them.
func NewShuffle(c *mpi.Comm, n int64, writers int, weighted bool) *Shuffle {
	s := &Shuffle{c: c, out: make([][][]byte, c.Size()), in: make([][][]byte, c.Size())}
	s.Reset(n, writers, weighted)
	return s
}

// Reshuffle returns the shuffle that assembled dg, Reset over [0, n) with the
// given number of writers, or a new shuffle when dg has none (a graph not
// built by Exchange). The graph's arrays are not the shuffle's, so dg stays
// intact until an Exchange recycles it.
func (dg *DistGraph) Reshuffle(n int64, writers int, weighted bool) *Shuffle {
	if dg.shuffle == nil {
		return NewShuffle(dg.Comm, n, writers, weighted)
	}
	dg.shuffle.Reset(n, writers, weighted)
	return dg.shuffle
}

// Reset starts the next shuffle on s, over the vertex space [0, n), with the
// same communicator, for the given number of writers, weighted as NewShuffle
// says. The buffers and the assembly's scratch keep their memory whatever the
// writer count; no graph an Exchange returned refers to it.
func (s *Shuffle) Reset(n int64, writers int, weighted bool) {
	p := s.c.Size()
	s.n = n
	start := byte(arcsUnit32) // the layout every writer's records start in
	switch {
	case wideIDs(n):
		start = arcs64
	case weighted:
		start = arcsWeight32
	}
	if writers > cap(s.writers) {
		s.writers = append(s.writers[:cap(s.writers)], make([]ArcWriter, writers-cap(s.writers))...)
	}
	s.writers = s.writers[:writers]
	for i := range s.writers {
		w := &s.writers[i]
		if w.streams == nil {
			w.s, w.streams = s, make([]stream, p)
		}
		for q := range w.streams {
			st := &w.streams[q]
			st.layout, st.segs, st.cur, st.full = start, st.segs[:0], nil, 0
		}
	}
	s.buffers.next, s.buffers.off, s.buffers.open = 0, 0, writers*p
}

// Owner returns the rank an arc leaving v is routed to.
func (s *Shuffle) Owner(v int64) int { return gio.SegmentOwner(s.n, v, s.c.Size()) }

// Writer returns writer i. Writers can fill one shuffle in parallel: each
// appends to segments of its own, and a frame holds the writers' segments in
// writer order.
func (s *Shuffle) Writer(i int) *ArcWriter { return &s.writers[i] }

// Len returns the number of arcs put, by all writers for all owners.
func (s *Shuffle) Len() int {
	k := 0
	for i := range s.writers {
		for _, st := range s.writers[i].streams {
			k += st.len() / recordWidth[st.layout]
		}
	}
	return k
}

// Allocated returns the bytes s has allocated for segments since it was
// made. It keeps them: every later shuffle on s cuts its segments from them
// first.
func (s *Shuffle) Allocated() int { return s.buffers.held }

// An ArcWriter is one writer of a Shuffle.
type ArcWriter struct {
	s       *Shuffle
	streams []stream // per owner
	spare   [][]byte // widen's list of the segments it re-encodes
}

// stream is one writer's records for one owner: full segments, then the one
// being written.
type stream struct {
	layout byte
	segs   [][]byte
	cur    []byte // its records, with room to the segment's end
	full   int    // bytes in segs
}

func (st *stream) len() int { return st.full + len(st.cur) }

// Put appends the arc from→to of weight wt to this writer's records for owner
// q.
func (w *ArcWriter) Put(q int, from, to int64, wt float64) { w.put(&w.streams[q], from, to, wt) }

func (w *ArcWriter) put(st *stream, from, to int64, wt float64) {
	if wt != 1 && st.layout == arcsUnit32 {
		w.widen(st)
	}
	width := recordWidth[st.layout]
	i := len(st.cur)
	if i+width > cap(st.cur) {
		w.nextSegment(st)
		i = 0
	}
	st.cur = st.cur[:i+width]
	b := st.cur[i:]
	switch st.layout {
	case arcsUnit32:
		binary.LittleEndian.PutUint32(b, uint32(from))
		binary.LittleEndian.PutUint32(b[4:], uint32(to))
	case arcsWeight32:
		binary.LittleEndian.PutUint32(b, uint32(from))
		binary.LittleEndian.PutUint32(b[4:], uint32(to))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(wt))
	default:
		binary.LittleEndian.PutUint64(b, uint64(from))
		binary.LittleEndian.PutUint64(b[8:], uint64(to))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(wt))
	}
}

// nextSegment closes st's segment, when it has one, and cuts the next.
func (w *ArcWriter) nextSegment(st *stream) {
	if cap(st.cur) > 0 {
		if st.segs == nil {
			st.segs = make([][]byte, 0, 2*segmentShare) // a stream's share of the buffers, twice
		}
		st.segs = append(st.segs, st.cur)
		st.full += len(st.cur)
	}
	st.cur = w.s.buffers.cut(st.full)
}

// widen re-encodes st's unit records with their weight, 1.0, into segments
// cut anew: the stream's layout becomes arcsWeight32. The segments it leaves
// are not cut again before the next Reset.
func (w *ArcWriter) widen(st *stream) {
	old := append(append(w.spare[:0], st.segs...), st.cur)
	st.layout, st.segs, st.cur, st.full = arcsWeight32, st.segs[:0], nil, 0
	for _, seg := range old {
		for i := 0; i < len(seg); i += 8 {
			w.put(st, int64(binary.LittleEndian.Uint32(seg[i:])), int64(binary.LittleEndian.Uint32(seg[i+4:])), 1)
		}
	}
	w.spare = old
}

// buffers is the memory a Shuffle cuts segments from, kept from one shuffle
// to the next: cuts run through the buffers in order, and only past the end
// of the last is a new one allocated, one segment cap long.
type buffers struct {
	mu        sync.Mutex // writers cut in parallel
	all       [][]byte
	next, off int // the next cut starts at all[next][off:]
	held      int // bytes in all
	open      int // streams: writers × owners
}

// cut returns an empty segment for a stream that holds full bytes: room for
// as many again within the bounds the constants set, or for fewer, at least
// minSegment, where a buffer ends.
func (b *buffers) cut(full int) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	most := max(minSegmentCap, b.held/(segmentShare*b.open))
	want := min(max(full, minSegment), most)
	for {
		if b.next == len(b.all) {
			b.grow(most)
		}
		buf := b.all[b.next]
		if rest := len(buf) - b.off; rest >= minSegment {
			k := min(want, rest)
			seg := buf[b.off : b.off : b.off+k]
			b.off += k
			return seg
		}
		b.next, b.off = b.next+1, 0
	}
}

// grow adds a buffer of k bytes, rounded up to a multiple of 8 KiB — a size
// Go's allocator hands out whole: a size class up to 32 KiB, whole pages past
// it — after the last and makes it the next to cut. Build and its kin call it
// before their one pass with a size their input gives, so that a unit-weight
// input's frames take one allocation.
func (b *buffers) grow(k int) {
	k = (k + 8<<10 - 1) &^ (8<<10 - 1)
	b.all = append(b.all, make([]byte, k))
	b.held += k
	b.next, b.off = len(b.all)-1, 0
}

// frames closes the writers' records into one frame per owner, s.out[q]: the
// layout byte, then writer 0's segments for q, writer 1's, …; none at all
// when no writer put an arc for q. A frame takes the widest layout of its
// writers', and a writer whose records are narrower widens them.
func (s *Shuffle) frames() [][][]byte {
	for q := range s.out {
		var layout byte
		for i := range s.writers {
			if st := &s.writers[i].streams[q]; st.len() > 0 {
				layout = max(layout, st.layout)
			}
		}
		segs := 1
		for i := range s.writers {
			w := &s.writers[i]
			if st := &w.streams[q]; st.len() > 0 {
				if st.layout != layout {
					w.widen(st)
				}
				segs += len(st.segs) + 1
			}
		}
		out := s.out[q][:0]
		if layout != 0 {
			out = append(slices.Grow(out, segs), layoutBytes[layout:layout+1:layout+1])
			for i := range s.writers {
				if st := &s.writers[i].streams[q]; st.len() > 0 {
					out = append(append(out, st.segs...), st.cur)
				}
			}
		}
		s.out[q] = out
	}
	return s.out
}

// Exchange ships every frame to its owner and assembles what arrives: the
// collective end of the shuffle. Each frame leaves as one message, copied by
// the transport from the segments where they lie (mpi.AlltoallSegments); the
// self-owned frame never enters the transport: the assembly reads its
// segments in place, in this rank's slot of the receive order.
//
// The assembly consumes the frames it is handed: it rewrites their records in
// place. The received frames are this rank's (mpi.Message.Data belongs to the
// receiver), and Exchange releases them to the transport once assembled; the
// self frame's segments are the shuffle's own, and the next shuffle on it
// cuts them again. The graph returned keeps s (Reshuffle).
//
// recycle, when not nil, is a graph the caller gives up — in core, the graph
// this one replaces. The assembly builds into its arrays wherever their
// capacity allows and allocates only the ones that must grow. On return
// recycle keeps its scalar fields (Comm, GlobalN, M2, Base, LocalN) and
// no arrays and no shuffle, whether or not Exchange succeeded.
func (s *Shuffle) Exchange(recycle *DistGraph) (*DistGraph, error) {
	var spare DistGraph
	if recycle != nil {
		spare = *recycle
		*recycle = DistGraph{Comm: spare.Comm, GlobalN: spare.GlobalN, M2: spare.M2, Base: spare.Base, LocalN: spare.LocalN}
	}
	rank := s.c.Rank()
	out := s.frames()
	self := out[rank]
	out[rank] = nil
	recv, err := s.c.AlltoallSegments(out)
	out[rank] = self
	if err != nil {
		return nil, err
	}
	for q := range s.in {
		s.in[q] = recv[q : q+1]
	}
	s.in[rank] = self
	base, hi := gio.SegmentRange(s.n, rank, s.c.Size())
	dg, err := s.assemble(base, hi, s.in, &spare)
	s.c.Release(recv...)
	if err != nil {
		return nil, err
	}
	dg.shuffle = s
	return dg, nil
}

// frameLayout validates a frame — its segments, the layout byte first — and
// returns its layout, 0 for an empty frame, and the record width: the layout
// byte must be one the world's vertex space selects, and the body a positive
// whole number of records. A received frame is one segment; the self frame's
// later segments hold whole records, as its writers cut them.
func frameLayout(f [][]byte, n int64) (byte, int, error) {
	total := 0
	for _, seg := range f {
		total += len(seg)
	}
	if total == 0 {
		return 0, 0, nil
	}
	layout := f[0][0]
	if layout < arcsUnit32 || layout > arcs64 {
		return 0, 0, fmt.Errorf("unknown layout byte %d", layout)
	}
	if (layout == arcs64) != wideIDs(n) {
		return 0, 0, fmt.Errorf("layout %d is not the one a vertex space of %d selects", layout, n)
	}
	width := recordWidth[layout]
	if body := total - 1; body == 0 || body%width != 0 {
		return 0, 0, fmt.Errorf("a %d-byte body is not a positive whole number of %d-byte records", body, width)
	}
	return layout, width, nil
}

// body returns segment i of frame f without the layout byte.
func body(f [][]byte, i int) []byte {
	if i == 0 {
		return f[0][1:]
	}
	return f[i]
}

// arcAt decodes the record at offset i of a body in the given layout: the
// slow path, for error messages.
func arcAt(layout byte, b []byte, i int) Arc {
	b = b[i:]
	switch layout {
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
	sum         float64 // pass 1: Σ weight of the records accepted
	fractional  float64 // pass 1: how many of them weigh a fraction
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
// one has been rewritten, and counted into sum and fractional.
func (p *placer) count32(body []byte, stride int) int {
	base, hi, n, count, ghosts := p.base, p.hi, p.n, p.count, p.ghosts
	var sum, fractional float64
	if stride == 8 {
		sum = float64(len(body) / 8) // unit weights
	}
	for i := 0; i < len(body); i += stride {
		from := int64(binary.LittleEndian.Uint32(body[i:]))
		to := int64(binary.LittleEndian.Uint32(body[i+4:]))
		if from < base || from >= hi || to >= n {
			return i
		}
		if stride == 16 {
			w := math.Float64frombits(binary.LittleEndian.Uint64(body[i+8:]))
			sum += w
			if w != math.Trunc(w) {
				fractional++
			}
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
	p.sum += sum
	p.fractional += fractional
	return -1
}

// count64 is count32 for the 64-bit layout.
func (p *placer) count64(body []byte) int {
	base, hi, n, count, ghosts := p.base, p.hi, p.n, p.count, p.ghosts
	var sum, fractional float64
	for i := 0; i < len(body); i += 24 {
		from := int64(binary.LittleEndian.Uint64(body[i:]))
		to := int64(binary.LittleEndian.Uint64(body[i+8:]))
		if from < base || from >= hi || to < 0 || to >= n {
			return i
		}
		w := math.Float64frombits(binary.LittleEndian.Uint64(body[i+16:]))
		sum += w
		if w != math.Trunc(w) {
			fractional++
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
	p.sum += sum
	p.fractional += fractional
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
