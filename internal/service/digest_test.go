package service

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"distlouvain/internal/core"
)

// TestDigestMemoSeesSameTickRewrite: a file rewritten in place at the same
// size right after it was hashed — within one mtime tick, so on a filesystem
// with a coarse clock its whole stat record may be unchanged — is hashed
// again: its entry is racy, and the memo serves the new digest. Only an entry
// whose mtime is a tick older than its hash is served from the memo, and a
// stat change always re-hashes.
func TestDigestMemoSeesSameTickRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "graph.bin")
	if err := os.WriteFile(path, bytes.Repeat([]byte{1}, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	var m digestMemo
	first, err := m.fingerprint(path)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := os.Stat(path)
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{2}, 100); err != nil {
		t.Fatal(err)
	}
	f.Close()
	after, _ := os.Stat(path)
	if versionOf(before) != versionOf(after) {
		// This clock ticked between the writes; a coarser one would have
		// left the stat record as it was, which is what the entry now says.
		e := m.entries[path]
		e.ver = versionOf(after)
		m.entries[path] = e
	}
	got, err := m.fingerprint(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.GraphFingerprint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got == first {
		t.Fatalf("after a same-size rewrite the memo says %s, the file hashes to %s (%s before)", got, want, first)
	}

	// Plant a stale digest under the file's current version: served once
	// the version is a tick older than the hash, never while it is racy.
	ver := versionOf(after)
	mtime := time.Unix(0, ver.mtime)
	for _, tc := range []struct {
		hashed time.Time
		memo   bool
	}{
		{mtime.Add(racyTick), true},
		{mtime.Add(racyTick - time.Nanosecond), false},
		{mtime, false},
	} {
		m.entries[path] = digestEntry{ver: ver, fp: "stale", hashed: tc.hashed}
		got, err := m.fingerprint(path)
		if err != nil {
			t.Fatal(err)
		}
		if served := got == "stale"; served != tc.memo {
			t.Errorf("hashed %v after the mtime: memo served %v, want %v", tc.hashed.Sub(mtime), served, tc.memo)
		}
	}
	m.entries[path] = digestEntry{ver: fileVersion{size: ver.size, mtime: ver.mtime - 1, ctime: ver.ctime, dev: ver.dev, ino: ver.ino}, fp: "stale", hashed: mtime.Add(time.Hour)}
	if got, _ := m.fingerprint(path); got != want {
		t.Errorf("a changed mtime was served from the memo: %s", got)
	}
}
