package gio

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzReadEdgeListText feeds arbitrary bytes through the text parser: it
// must either return a valid graph or an error — never panic, never emit
// negative vertices.
func FuzzReadEdgeListText(f *testing.F) {
	f.Add([]byte("0 1\n1 2 3.5\n# comment\n"))
	f.Add([]byte(""))
	f.Add([]byte("0 0 0\n"))
	f.Add([]byte("9223372036854775807 1\n"))
	f.Add([]byte("a b c\n"))
	f.Add([]byte("1\n2\n"))
	f.Add([]byte("% matrix market\n3 3 2\n"))
	dir := f.TempDir()
	i := 0
	f.Fuzz(func(t *testing.T, data []byte) {
		i++
		path := filepath.Join(dir, "fuzz.txt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		n, edges, err := ReadEdgeListText(path)
		if err != nil {
			return
		}
		if n < 0 {
			t.Fatalf("negative vertex count %d", n)
		}
		for _, e := range edges {
			if e.U < 0 || e.V < 0 || e.U >= n || e.V >= n {
				t.Fatalf("edge %+v outside [0,%d)", e, n)
			}
		}
	})
}

// FuzzReadHeader feeds arbitrary bytes through the binary header parser.
func FuzzReadHeader(f *testing.F) {
	good := append([]byte(Magic), 1, 0, 0, 0)
	good = append(good, make([]byte, 16)...)
	f.Add(good)
	f.Add([]byte("DLVB"))
	f.Add([]byte(""))
	f.Add(make([]byte, 64))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		h, err := ReadHeader(path)
		if err != nil {
			return
		}
		if h.Vertices < 0 || h.Edges < 0 {
			t.Fatalf("negative header fields: %+v", h)
		}
		// A valid header implies the advertised size matched; reading the
		// whole file must then succeed or fail cleanly.
		if _, _, err := ReadBinary(path); err != nil {
			// Out-of-range vertex references are legal failures.
			return
		}
	})
}

// FuzzGroundTruth feeds arbitrary bytes through the membership parser, and
// round-trips what it accepts: WriteGroundTruth writes one decimal label and a
// newline per vertex — the bytes fmt's "%d\n" gives, which dlouvain -o files
// and the daemon's result.labels are — and ReadGroundTruth reads the same
// labels back.
func FuzzGroundTruth(f *testing.F) {
	f.Add([]byte("1\n2\n3\n"), int64(3))
	f.Add([]byte("0 5\n1 5\n2 7\n"), int64(3))
	f.Add([]byte(""), int64(0))
	f.Add([]byte("x\n"), int64(1))
	f.Add([]byte("0 9223372036854775807\n1 0\n"), int64(2))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, n int64) {
		if n < 0 || n > 1000 {
			t.Skip()
		}
		path := filepath.Join(dir, "fuzz.gt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		comm, err := ReadGroundTruth(path, n)
		if err != nil {
			return
		}
		if int64(len(comm)) != n {
			t.Fatalf("length %d, want %d", len(comm), n)
		}
		out := filepath.Join(dir, "fuzz.out")
		if err := WriteGroundTruth(out, comm); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		for _, c := range comm {
			fmt.Fprintf(&want, "%d\n", c)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("WriteGroundTruth wrote %q (%v), want %q", got, err, want.Bytes())
		}
		back, err := ReadGroundTruth(out, n)
		if err != nil || !slices.Equal(back, comm) {
			t.Fatalf("round trip: %v (%v), want %v", back, err, comm)
		}
	})
}
