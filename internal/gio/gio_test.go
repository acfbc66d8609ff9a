package gio

import (
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"distlouvain/internal/graph"
)

func tempPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

func sampleEdges() []graph.RawEdge {
	return []graph.RawEdge{
		{U: 0, V: 1, W: 1},
		{U: 1, V: 2, W: 2.5},
		{U: 2, V: 0, W: 0.25},
		{U: 3, V: 3, W: 7},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	path := tempPath(t, "g.bin")
	if err := WriteBinary(path, 4, sampleEdges()); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.Vertices != 4 || h.Edges != 4 {
		t.Fatalf("header %+v", h)
	}
	n, edges, err := ReadBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || len(edges) != 4 {
		t.Fatalf("n=%d len=%d", n, len(edges))
	}
	for i, e := range sampleEdges() {
		if edges[i] != e {
			t.Fatalf("edge %d: %+v != %+v", i, edges[i], e)
		}
	}
}

func TestSegmentRangesPartitionRecords(t *testing.T) {
	for _, edges := range []int64{0, 1, 7, 16, 100} {
		for _, p := range []int{1, 2, 3, 7, 16} {
			var prevHi int64
			var total int64
			for r := 0; r < p; r++ {
				lo, hi := SegmentRange(edges, r, p)
				if lo != prevHi {
					t.Fatalf("edges=%d p=%d rank=%d: gap/overlap (lo=%d prevHi=%d)", edges, p, r, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("hi < lo")
				}
				total += hi - lo
				prevHi = hi
			}
			if total != edges || prevHi != edges {
				t.Fatalf("edges=%d p=%d: covered %d", edges, p, total)
			}
		}
	}
}

// TestReadSegmentsReassemble: the segments of every rank count put the file
// back together — at 37 records, and at 2500, where a segment spans several
// of the reader's 1024-record chunks and ends inside one.
func TestReadSegmentsReassemble(t *testing.T) {
	for _, m := range []int64{37, 2500} {
		path := tempPath(t, "g.bin")
		var all []graph.RawEdge
		for i := int64(0); i < m; i++ {
			all = append(all, graph.RawEdge{U: i % 10, V: (i * 3) % 10, W: float64(i)})
		}
		if err := WriteBinary(path, 10, all); err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 3, 5, 8, 37, 50} {
			var got []graph.RawEdge
			for r := 0; r < p; r++ {
				seg, err := ReadSegment(path, r, p)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, seg...)
			}
			if len(got) != len(all) {
				t.Fatalf("m=%d p=%d: got %d edges, want %d", m, p, len(got), len(all))
			}
			for i := range all {
				if got[i] != all[i] {
					t.Fatalf("m=%d p=%d edge %d: %+v != %+v", m, p, i, got[i], all[i])
				}
			}
		}
	}
}

func TestReadSegmentValidation(t *testing.T) {
	path := tempPath(t, "g.bin")
	if err := WriteBinary(path, 2, []graph.RawEdge{{U: 0, V: 1, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSegment(path, -1, 2); err == nil {
		t.Fatal("expected error for negative rank")
	}
	if _, err := ReadSegment(path, 2, 2); err == nil {
		t.Fatal("expected error for rank >= size")
	}
}

func TestBinaryRejectsCorruptFiles(t *testing.T) {
	// Bad magic.
	path := tempPath(t, "bad.bin")
	if err := os.WriteFile(path, []byte("XXXX0000000000000000000000"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHeader(path); err == nil {
		t.Fatal("expected bad-magic error")
	}
	// Truncated body.
	good := tempPath(t, "good.bin")
	if err := WriteBinary(good, 4, sampleEdges()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	trunc := tempPath(t, "trunc.bin")
	if err := os.WriteFile(trunc, data[:len(data)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHeader(trunc); err == nil {
		t.Fatal("expected size-mismatch error")
	}
	// Edge referencing vertex out of range.
	badVertex := tempPath(t, "badv.bin")
	if err := WriteBinary(badVertex, 2, []graph.RawEdge{{U: 0, V: 5, W: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSegment(badVertex, 0, 1); err == nil {
		t.Fatal("expected out-of-range vertex error")
	}
}

func TestTextEdgeListRoundTrip(t *testing.T) {
	path := tempPath(t, "g.txt")
	if err := WriteEdgeListText(path, sampleEdges()); err != nil {
		t.Fatal(err)
	}
	n, edges, err := ReadEdgeListText(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("n = %d", n)
	}
	for i, e := range sampleEdges() {
		if edges[i] != e {
			t.Fatalf("edge %d: %+v != %+v", i, edges[i], e)
		}
	}
}

func TestTextEdgeListParsing(t *testing.T) {
	path := tempPath(t, "g.txt")
	content := "# comment\n% another\n\n0 1\n1 2 3.5\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	n, edges, err := ReadEdgeListText(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(edges) != 2 {
		t.Fatalf("n=%d edges=%v", n, edges)
	}
	if edges[0].W != 1 { // default weight
		t.Fatalf("default weight = %g", edges[0].W)
	}
	if edges[1].W != 3.5 {
		t.Fatalf("weight = %g", edges[1].W)
	}
}

func TestTextEdgeListErrors(t *testing.T) {
	for _, bad := range []string{"0\n", "a b\n", "0 b\n", "-1 2\n", "0 1 x\n"} {
		path := tempPath(t, "bad.txt")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadEdgeListText(path); err == nil {
			t.Fatalf("expected parse error for %q", bad)
		}
	}
}

func TestGroundTruthSingleColumn(t *testing.T) {
	path := tempPath(t, "gt.txt")
	if err := WriteGroundTruth(path, []int64{5, 5, 7, 7}); err != nil {
		t.Fatal(err)
	}
	comm, err := ReadGroundTruth(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{5, 5, 7, 7}
	for i := range want {
		if comm[i] != want[i] {
			t.Fatalf("comm = %v", comm)
		}
	}
}

func TestGroundTruthPairForm(t *testing.T) {
	path := tempPath(t, "gt.txt")
	content := "# vertex community\n3 9\n2 8\n1 8\n0 9\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	comm, err := ReadGroundTruth(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{9, 8, 8, 9}
	for i := range want {
		if comm[i] != want[i] {
			t.Fatalf("comm = %v", comm)
		}
	}
}

func TestGroundTruthMissingVertex(t *testing.T) {
	path := tempPath(t, "gt.txt")
	if err := os.WriteFile(path, []byte("0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGroundTruth(path, 2); err == nil {
		t.Fatal("expected missing-assignment error")
	}
}

// Property: binary round trip is exact for arbitrary edges.
func TestQuickBinaryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	i := 0
	f := func(us, vs []uint16, ws []float64) bool {
		n := len(us)
		if len(vs) < n {
			n = len(vs)
		}
		if len(ws) < n {
			n = len(ws)
		}
		edges := make([]graph.RawEdge, n)
		var maxV int64 = 1
		for j := 0; j < n; j++ {
			edges[j] = graph.RawEdge{U: int64(us[j]), V: int64(vs[j]), W: ws[j]}
			if int64(us[j]) >= maxV {
				maxV = int64(us[j]) + 1
			}
			if int64(vs[j]) >= maxV {
				maxV = int64(vs[j]) + 1
			}
		}
		i++
		path := filepath.Join(dir, "q", "..", "q.bin")
		if err := WriteBinary(path, maxV, edges); err != nil {
			return false
		}
		nGot, got, err := ReadBinary(path)
		if err != nil || nGot != maxV || len(got) != n {
			return false
		}
		for j := range edges {
			// NaN weights compare unequal; compare bit patterns via !=
			// only for non-NaN.
			if got[j].U != edges[j].U || got[j].V != edges[j].V {
				return false
			}
			if got[j].W != edges[j].W && !(got[j].W != got[j].W && edges[j].W != edges[j].W) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
