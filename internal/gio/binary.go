// Package gio implements graph I/O: the binary edge-list format the paper's
// implementation feeds through MPI I/O, plus plain-text edge lists and
// ground-truth community files for the LFR quality experiments.
//
// Binary format (little endian):
//
//	offset 0:  magic "DLVB" (4 bytes)
//	offset 4:  format version (uint32, currently 1)
//	offset 8:  vertex count (int64)
//	offset 16: edge count   (int64)
//	offset 24: edges, each 24 bytes: u int64, v int64, w float64
//
// Each undirected edge is stored once. The fixed record size is what makes
// the segmented parallel read trivial: rank r of p seeks straight to its
// record range, exactly like the MPI_File_read_at_all decomposition in the
// paper (whose I/O takes 1–2% of total time). That record range is the even
// split of [0, edges) (SegmentRange), the split by which every distributed
// graph also gives each rank its vertices: the paper's "every process owns an
// equal number of vertices" (SegmentOwner is its inverse).
package gio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"distlouvain/internal/graph"
)

// Magic identifies the binary edge-list format.
const Magic = "DLVB"

// Version is the current format version.
const Version = 1

const headerSize = 24
const recordSize = 24

// ErrVertexRange marks a record naming a vertex outside the header's vertex
// count.
var ErrVertexRange = errors.New("gio: record names a vertex out of range")

// Header describes a binary edge-list file.
type Header struct {
	Vertices int64
	Edges    int64
}

// WriteBinary writes the graph's undirected edges to path.
func WriteBinary(path string, n int64, edges []graph.RawEdge) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	var hdr [headerSize]byte
	copy(hdr[0:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(n))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(edges)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var rec [recordSize]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint64(rec[0:8], uint64(e.U))
		binary.LittleEndian.PutUint64(rec[8:16], uint64(e.V))
		binary.LittleEndian.PutUint64(rec[16:24], math.Float64bits(e.W))
		if _, err := w.Write(rec[:]); err != nil {
			return err
		}
	}
	return w.Flush()
}

// ReadHeader reads and validates the file header.
func ReadHeader(path string) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	return readHeader(f, path)
}

func readHeader(f *os.File, path string) (Header, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return Header{}, fmt.Errorf("gio: %s: short header: %w", path, err)
	}
	if string(hdr[0:4]) != Magic {
		return Header{}, fmt.Errorf("gio: %s: bad magic %q", path, hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != Version {
		return Header{}, fmt.Errorf("gio: %s: unsupported version %d", path, v)
	}
	h := Header{
		Vertices: int64(binary.LittleEndian.Uint64(hdr[8:16])),
		Edges:    int64(binary.LittleEndian.Uint64(hdr[16:24])),
	}
	if h.Vertices < 0 || h.Edges < 0 {
		return Header{}, fmt.Errorf("gio: %s: negative counts in header", path)
	}
	if h.Edges > (math.MaxInt64-headerSize)/recordSize {
		// Guard the size arithmetic below against overflow from a forged
		// or corrupt header.
		return Header{}, fmt.Errorf("gio: %s: implausible edge count %d", path, h.Edges)
	}
	st, err := f.Stat()
	if err != nil {
		return Header{}, err
	}
	if want := int64(headerSize) + h.Edges*recordSize; st.Size() != want {
		return Header{}, fmt.Errorf("gio: %s: size %d, want %d for %d edges", path, st.Size(), want, h.Edges)
	}
	return h, nil
}

// ReadBinary reads the whole file into one edge list, in file order.
func ReadBinary(path string) (int64, []graph.RawEdge, error) {
	h, err := ReadHeader(path)
	if err != nil {
		return 0, nil, err
	}
	edges := make([]graph.RawEdge, 0, h.Edges)
	err = Stream(path)(func(chunk []graph.RawEdge) error {
		edges = append(edges, chunk...)
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return h.Vertices, edges, nil
}

// SegmentRange returns the half-open range [lo, hi) of [0, n) that rank r of
// p holds: the even split, the first n%p ranks holding one ID more. It is the
// one split of the system: a rank's records of the file, and its vertices and
// communities of every graph (DESIGN §2).
func SegmentRange(n int64, rank, size int) (lo, hi int64) {
	per, rem, r := n/int64(size), n%int64(size), int64(rank)
	lo = r*per + min(r, rem)
	hi = lo + per
	if r < rem {
		hi++
	}
	return lo, hi
}

// SegmentOwner is SegmentRange's inverse: the rank of p whose range of [0, n)
// holds id, for id in [0, n). The first cut = (n%p)·(n/p+1) IDs lie in ranges
// of n/p+1, the rest in ranges of n/p.
func SegmentOwner(n, id int64, size int) int {
	per, rem := n/int64(size), n%int64(size)
	if cut := rem * (per + 1); id >= cut {
		return int(rem + (id-cut)/per)
	}
	return int(id / (per + 1))
}

// Segment is rank's record range of the file: its record count, and its
// records as a stream that reads them, on each run, through the fixed buffer
// Stream uses. Every rank opens the file independently and seeks to its
// range, mirroring the collective MPI I/O read in the paper; no rank holds
// its segment whole. The header is validated here and again on each run.
func Segment(path string, rank, size int) (int64, graph.EdgeStream, error) {
	if rank < 0 || size <= 0 || rank >= size {
		return 0, nil, fmt.Errorf("gio: invalid segment rank %d of %d", rank, size)
	}
	h, err := ReadHeader(path)
	if err != nil {
		return 0, nil, err
	}
	lo, hi := SegmentRange(h.Edges, rank, size)
	return hi - lo, func(visit func([]graph.RawEdge) error) error {
		return scanSegment(path, rank, size, visit)
	}, nil
}

// Stream is the whole file as an edge stream: each call reads it again, in
// file order, through one fixed 1024-record buffer, so memory stays constant
// whatever the file's size.
func Stream(path string) graph.EdgeStream {
	return func(visit func([]graph.RawEdge) error) error {
		return scanSegment(path, 0, 1, visit)
	}
}

// scanSegment is the record loop Segment and Stream share: it hands rank's
// record range to visit in chunks of up to 1024 decoded records, and returns
// the first error of the read or of visit. The chunk is reused between calls.
func scanSegment(path string, rank, size int, visit func(chunk []graph.RawEdge) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	h, err := readHeader(f, path)
	if err != nil {
		return err
	}
	lo, hi := SegmentRange(h.Edges, rank, size)
	if lo == hi {
		return nil
	}
	if _, err := f.Seek(int64(headerSize)+lo*recordSize, io.SeekStart); err != nil {
		return err
	}
	const batch = 1024 // a small fixed buffer: ranks read their segments concurrently
	buf := make([]byte, min(hi-lo, batch)*recordSize)
	edges := make([]graph.RawEdge, 0, min(hi-lo, batch))
	for i := lo; i < hi; {
		chunk := buf[:min(hi-i, batch)*recordSize]
		if got, err := io.ReadFull(f, chunk); err != nil {
			return fmt.Errorf("gio: %s: record %d: %w", path, i+int64(got/recordSize), err)
		}
		edges = edges[:0]
		for rec := chunk; len(rec) > 0; rec, i = rec[recordSize:], i+1 {
			e := graph.RawEdge{
				U: int64(binary.LittleEndian.Uint64(rec[0:8])),
				V: int64(binary.LittleEndian.Uint64(rec[8:16])),
				W: math.Float64frombits(binary.LittleEndian.Uint64(rec[16:24])),
			}
			if e.U < 0 || e.U >= h.Vertices || e.V < 0 || e.V >= h.Vertices {
				return fmt.Errorf("%w: %s: record %d names (%d,%d), not in [0,%d)", ErrVertexRange, path, i, e.U, e.V, h.Vertices)
			}
			edges = append(edges, e)
		}
		if err := visit(edges); err != nil {
			return err
		}
	}
	return nil
}
