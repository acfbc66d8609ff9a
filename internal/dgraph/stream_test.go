package dgraph

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/graph"
	"distlouvain/internal/mpi"
)

// cutStream hands edges to visit in pieces that end after edge i when cut(i),
// and after every 1024th edge of a piece, as gio's reader does, through one
// buffer it overwrites with out-of-range edges after each visit: a build that
// kept a piece past its visit would read them.
func cutStream(edges []graph.RawEdge, cut func(i int) bool) graph.EdgeStream {
	return func(visit func([]graph.RawEdge) error) error {
		buf := make([]graph.RawEdge, 0, 1024)
		flush := func() error {
			if len(buf) == 0 {
				return nil
			}
			err := visit(buf)
			for i := range buf {
				buf[i] = graph.RawEdge{U: -1, V: -1, W: math.NaN()}
			}
			buf = buf[:0]
			return err
		}
		for i, e := range edges {
			buf = append(buf, e)
			if cut(i) || len(buf) == cap(buf) {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return flush()
	}
}

// every cuts a stream into pieces of k edges.
func every(k int) func(int) bool { return func(i int) bool { return (i+1)%k == 0 } }

// streamMatchesSlice builds the rank's chunk twice in one world, with Build
// over the slice and with BuildStream over it cut by cut: the graphs must be
// equal field for field, weights bit for bit and W nil in both or neither,
// and the two builds must send the same collective bytes and hold the same
// shuffle buffers.
func streamMatchesSlice(c *mpi.Comm, n int64, chunk []graph.RawEdge, cut func(int) bool) error {
	before := c.Stats().Snapshot()
	want, err := Build(c, n, chunk, nil)
	if err != nil {
		return err
	}
	mid := c.Stats().Snapshot()
	got, err := BuildStream(c, n, int64(len(chunk)), cutStream(chunk, cut))
	if err != nil {
		return err
	}
	after := c.Stats().Snapshot()
	if g, w := after.Sub(mid).CollBytes, mid.Sub(before).CollBytes; g != w {
		return fmt.Errorf("rank %d: the stream build sent %d collective bytes, the slice build %d", c.Rank(), g, w)
	}
	if g, w := got.shuffle.Allocated(), want.shuffle.Allocated(); g != w {
		return fmt.Errorf("rank %d: the stream build's shuffle holds %d bytes, the slice build's %d", c.Rank(), g, w)
	}
	if (got.W == nil) != (want.W == nil) {
		return fmt.Errorf("rank %d: W nil is %v from the stream, %v from the slice", c.Rank(), got.W == nil, want.W == nil)
	}
	return sameGraph(got, want)
}

// TestBuildStreamMatchesBuild: a rank's chunk streamed in pieces of 1, 7 and
// 1024 edges builds the graph Build builds from the same chunk as one slice —
// on every differential graph (unit, integer and float weights, parallel
// edges, self loops, no edges at all) at 1 to 4 ranks, two-vertices leaving
// ranks 2 and 3 an empty segment.
func TestBuildStreamMatchesBuild(t *testing.T) {
	for _, g := range differentialGraphs(t) {
		for p := 1; p <= 4; p++ {
			for _, k := range []int{1, 7, 1024} {
				err := mpi.Run(p, func(c *mpi.Comm) error {
					return streamMatchesSlice(c, g.n, chunkEdges(g.edges, c.Rank(), p), every(k))
				})
				if err != nil {
					t.Fatalf("%s p=%d pieces of %d: %v", g.name, p, k, err)
				}
			}
		}
	}
}

// FuzzBuildStream: random edges, scattered over 1 to 4 ranks in file order
// and streamed in pieces cut at random, build the graph Build builds from the
// same slices. data[0] picks the rank count and the weights (unit, integer or
// quarter-integer), data[1] the vertex count; each further 4 bytes are one
// edge and, in the last, whether its piece ends after it.
func FuzzBuildStream(f *testing.F) {
	f.Add([]byte{0x03, 15, 0, 1, 1, 0, 1, 2, 3, 1, 2, 2, 5, 0, 7, 0, 9, 0})
	f.Add([]byte{0x11, 7, 0, 0, 0, 0})
	f.Add([]byte{0x22, 9})
	f.Add([]byte{0x02, 40, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 2+4*4096 {
			return
		}
		p := int(data[0])%4 + 1
		n := int64(data[1])%64 + 1
		var edges []graph.RawEdge
		var cuts []bool
		for rest := data[2:]; len(rest) >= 4; rest = rest[4:] {
			w := float64(rest[2])
			switch data[0] >> 4 % 3 {
			case 1:
				w = 1
			case 2:
				w /= 4
			}
			edges = append(edges, graph.RawEdge{U: int64(rest[0]) % n, V: int64(rest[1]) % n, W: w})
			cuts = append(cuts, rest[3]&3 == 0)
		}
		err := mpi.Run(p, func(c *mpi.Comm) error {
			lo, _ := gio.SegmentRange(int64(len(edges)), c.Rank(), p)
			return streamMatchesSlice(c, n, chunkEdges(edges, c.Rank(), p), func(i int) bool { return cuts[int(lo)+i] })
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestSegmentErrorReturnsEveryRank: a record naming a vertex past the header's
// count, in the second 1024-record piece of rank 1's segment, fails rank 1
// with gio.ErrVertexRange after it has put the first piece's arcs; its peers,
// waiting in the exchange, return once its world closes, none is left
// blocked, and the world's error is rank 1's.
func TestSegmentErrorReturnsEveryRank(t *testing.T) {
	const n = 500
	edges := make([]graph.RawEdge, 6000)
	for i := range edges {
		edges[i] = graph.RawEdge{U: int64(i) % n, V: int64(i*7+1) % n, W: 1}
	}
	for _, p := range []int{2, 3} {
		lo, _ := gio.SegmentRange(int64(len(edges)), 1, p)
		bad := slices.Clone(edges)
		bad[lo+1500].V = n + 5
		path := filepath.Join(t.TempDir(), "bad.bin")
		if err := gio.WriteBinary(path, n, bad); err != nil {
			t.Fatal(err)
		}
		errs := make([]error, p)
		var runErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			runErr = mpi.Run(p, func(c *mpi.Comm) error {
				m, edges, err := gio.Segment(path, c.Rank(), p)
				if err == nil {
					_, err = BuildStream(c, n, m, edges)
				}
				errs[c.Rank()] = err
				return err
			})
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("p=%d: a rank is still blocked 30 s after rank 1 failed", p)
		}
		if !errors.Is(errs[1], gio.ErrVertexRange) || !errors.Is(runErr, gio.ErrVertexRange) {
			t.Fatalf("p=%d: rank 1 returned %v and the world %v, want gio.ErrVertexRange", p, errs[1], runErr)
		}
		for r, err := range errs {
			if r != 1 && !errors.Is(err, mpi.ErrClosed) {
				t.Errorf("p=%d: rank %d returned %v, want mpi.ErrClosed from the closed world", p, r, err)
			}
		}
	}
}

// TestBuildSegmentAllocations is the streaming ceiling: building LFR 4000 at
// 2 ranks from the file's segments allocates at most what building it from
// the same segments held in memory allocates, plus each rank's fixed read
// buffers (24 KiB of records, 24 KiB of decoded edges, the file), and under a
// pinned ceiling about 10 % above the measured figure. A segment copied into
// an edge list first would add its 24 B per edge, about 0.4 MB per rank here,
// and fail both. Each figure is the least of three runs, as in core's
// TestRunAllocationCeiling.
func TestBuildSegmentAllocations(t *testing.T) {
	n, edges, _, err := gen.LFR(gen.DefaultLFR(4000, 0.3, 1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lfr.bin")
	if err := gio.WriteBinary(path, n, edges); err != nil {
		t.Fatal(err)
	}
	const p = 2
	least := func(build func(c *mpi.Comm) (*DistGraph, error)) uint64 {
		var runs []uint64
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			err := mpi.Run(p, func(c *mpi.Comm) error {
				_, err := build(c)
				return err
			})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, after.TotalAlloc-before.TotalAlloc)
		}
		return slices.Min(runs)
	}
	inMemory := least(func(c *mpi.Comm) (*DistGraph, error) {
		return Build(c, n, chunkEdges(edges, c.Rank(), p), nil)
	})
	segment := least(func(c *mpi.Comm) (*DistGraph, error) {
		m, edges, err := gio.Segment(path, c.Rank(), p)
		if err != nil {
			return nil, err
		}
		return BuildStream(c, n, m, edges)
	})
	// Measured: 1 643 664 bytes, 1 647 792 under the race detector.
	const readBuffers, ceiling = p * (2*1024*24 + 4096), 1_810_000
	t.Logf("%d edges at %d ranks: %d bytes from segments, %d from memory (+%d read buffers), ceiling %d",
		len(edges), p, segment, inMemory, readBuffers, ceiling)
	if segment > inMemory+readBuffers {
		t.Errorf("building from segments allocated %d bytes, past the in-memory build's %d plus %d of read buffers", segment, inMemory, readBuffers)
	}
	if segment > ceiling {
		t.Errorf("building from segments allocated %d bytes, ceiling %d", segment, ceiling)
	}
}

// BenchmarkBuildSegment is BenchmarkBuild's input read from a file, each of
// the 2 ranks streaming its segment into the shuffle.
func BenchmarkBuildSegment(b *testing.B) {
	n, edges := rmat14(b)
	path := filepath.Join(b.TempDir(), "rmat14.bin")
	if err := gio.WriteBinary(path, n, edges); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(2, func(c *mpi.Comm) error {
			m, edges, err := gio.Segment(path, c.Rank(), 2)
			if err != nil {
				return err
			}
			_, err = BuildStream(c, n, m, edges)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
