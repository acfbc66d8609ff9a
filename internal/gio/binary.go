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
// paper (whose I/O takes 1–2% of total time).
package gio

import (
	"bufio"
	"encoding/binary"
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

// ReadBinary reads the whole file.
func ReadBinary(path string) (int64, []graph.RawEdge, error) {
	h, err := ReadHeader(path)
	if err != nil {
		return 0, nil, err
	}
	edges, err := ReadSegment(path, 0, 1)
	if err != nil {
		return 0, nil, err
	}
	return h.Vertices, edges, nil
}

// SegmentRange returns the half-open record range [lo, hi) that rank r of p
// reads: records are split as evenly as possible, the first (edges % p)
// ranks receiving one extra.
func SegmentRange(edges int64, rank, size int) (lo, hi int64) {
	per := edges / int64(size)
	rem := edges % int64(size)
	lo = int64(rank)*per + min(int64(rank), rem)
	hi = lo + per
	if int64(rank) < rem {
		hi++
	}
	return lo, hi
}

// ReadSegment reads rank's record range of the file. Every rank opens the
// file independently and seeks to its range, mirroring the collective MPI
// I/O read in the paper.
func ReadSegment(path string, rank, size int) ([]graph.RawEdge, error) {
	if rank < 0 || size <= 0 || rank >= size {
		return nil, fmt.Errorf("gio: invalid segment rank %d of %d", rank, size)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h, err := readHeader(f, path)
	if err != nil {
		return nil, err
	}
	lo, hi := SegmentRange(h.Edges, rank, size)
	if lo == hi {
		return nil, nil
	}
	if _, err := f.Seek(int64(headerSize)+lo*recordSize, io.SeekStart); err != nil {
		return nil, err
	}
	out := make([]graph.RawEdge, 0, hi-lo)
	buf := make([]byte, 1024*recordSize) // a small fixed buffer: ranks read their segments concurrently
	for i := lo; i < hi; {
		chunk := buf[:min(hi-i, 1024)*recordSize]
		if got, err := io.ReadFull(f, chunk); err != nil {
			return nil, fmt.Errorf("gio: %s: record %d: %w", path, i+int64(got/recordSize), err)
		}
		for rec := chunk; len(rec) > 0; rec, i = rec[recordSize:], i+1 {
			e := graph.RawEdge{
				U: int64(binary.LittleEndian.Uint64(rec[0:8])),
				V: int64(binary.LittleEndian.Uint64(rec[8:16])),
				W: math.Float64frombits(binary.LittleEndian.Uint64(rec[16:24])),
			}
			if e.U < 0 || e.U >= h.Vertices || e.V < 0 || e.V >= h.Vertices {
				return nil, fmt.Errorf("gio: %s: record %d references vertex out of range", path, i)
			}
			out = append(out, e)
		}
	}
	return out, nil
}
