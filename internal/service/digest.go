package service

import (
	"os"
	"sync"
	"time"

	"distlouvain/internal/core"
)

// digestMemo memoises core.GraphFingerprint per version of a graph file, so
// that a resubmitted graph — a cache hit above all — costs one stat instead
// of reading and hashing the whole file. A version is the file's path, size,
// mtime, ctime and inode (fileVersion): a rewrite changes one of them, except
// a same-size rewrite in place within one tick of the filesystem's clock.
// Against that one the memo keeps git's racy-timestamp rule: an entry is
// trusted only once the file's mtime is at least racyTick older than the
// moment its digest was taken, and an entry not yet trusted is hashed again.
type digestMemo struct {
	mu      sync.Mutex
	entries map[string]digestEntry
}

type digestEntry struct {
	ver    fileVersion
	fp     core.Fingerprint
	hashed time.Time // read before the file was opened
}

// fileVersion is what stat says of one version of a file's bytes.
type fileVersion struct {
	size, mtime, ctime int64 // times in Unix nanoseconds
	dev, ino           uint64
}

const (
	// racyTick is the coarsest mtime granularity of a filesystem the daemon
	// may read (FAT's two seconds): a file modified less than that before it
	// was hashed may change again without changing its mtime.
	racyTick = 2 * time.Second
	// digestMemoCap bounds the memo; a full memo forgets an arbitrary entry.
	digestMemoCap = 1024
)

// fingerprint returns core.GraphFingerprint(path), from the memo when the
// file is the version hashed before and that hash is not racy.
func (m *digestMemo) fingerprint(path string) (core.Fingerprint, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	ver := versionOf(fi)
	m.mu.Lock()
	e, ok := m.entries[path]
	m.mu.Unlock()
	if ok && e.ver == ver && ver.mtime <= e.hashed.Add(-racyTick).UnixNano() {
		return e.fp, nil
	}
	hashed := time.Now()
	fp, err := core.GraphFingerprint(path)
	if err != nil {
		return "", err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil {
		m.entries = make(map[string]digestEntry)
	}
	if _, ok := m.entries[path]; !ok && len(m.entries) >= digestMemoCap {
		for p := range m.entries {
			delete(m.entries, p)
			break
		}
	}
	m.entries[path] = digestEntry{ver: ver, fp: fp, hashed: hashed}
	return fp, nil
}
