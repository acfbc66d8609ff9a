// Package ckpt implements the distributed checkpoint/restart subsystem:
// a versioned, CRC32-protected, atomically-written binary container for
// per-rank phase-boundary snapshots, plus the rank-0 manifest that names
// the latest complete phase.
//
// The container is deliberately generic — named sections of opaque bytes —
// so the algorithm layer (internal/core) owns the meaning of each section
// while this package owns durability and corruption detection. A snapshot
// file is laid out as:
//
//	offset 0:  magic "DLCK" (4 bytes)
//	offset 4:  format version (uint32, currently 1)
//	offset 8:  section count  (uint32)
//	offset 12: file CRC32     (uint32, IEEE, over everything after it)
//	offset 16: sections, each:
//	             name length (uint32) + name bytes
//	             payload CRC32 (uint32, IEEE)
//	             payload length (uint64) + payload bytes
//
// Every length is validated against the remaining file before use, every
// payload against its CRC, and the whole body against the file CRC, so a
// truncated or bit-flipped snapshot is always rejected with file + section
// context — never loaded silently and never a panic (FuzzReadSnapshot
// enforces this).
//
// Durability protocol: snapshots and the manifest are written to a
// temporary sibling, fsynced, then renamed into place, so an interrupted
// write can never shadow a previous valid file. WriteSnapshot is
// EncodeSnapshot then WriteFile; a caller may run the two on different
// goroutines, so the disk is not on its own critical path.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Magic identifies a snapshot file.
const Magic = "DLCK"

// FormatVersion is the current container format version.
const FormatVersion = 1

// MaxNameLen bounds section names; longer names indicate corruption.
const MaxNameLen = 255

const headerSize = 16

// Section is one named payload of a snapshot.
type Section struct {
	Name string
	Data []byte
}

// Snapshot is a decoded, checksum-verified snapshot file.
type Snapshot struct {
	path     string
	sections []Section
	index    map[string]int
}

// Path returns the file (or synthetic name) the snapshot was decoded from.
func (s *Snapshot) Path() string { return s.path }

// Sections returns the sections in file order.
func (s *Snapshot) Sections() []Section { return s.sections }

// SectionError reports a section that is missing or whose payload failed to
// decode, naming the file and the section.
type SectionError struct {
	Path    string
	Section string
	Err     error
}

func (e *SectionError) Error() string {
	return fmt.Sprintf("ckpt: %s: section %q: %v", e.Path, e.Section, e.Err)
}

// Unwrap returns what was wrong with the section.
func (e *SectionError) Unwrap() error { return e.Err }

// Section returns the payload of the named section.
func (s *Snapshot) Section(name string) ([]byte, error) {
	i, ok := s.index[name]
	if !ok {
		return nil, &SectionError{Path: s.path, Section: name, Err: errors.New("missing")}
	}
	return s.sections[i].Data, nil
}

// EncodeSnapshot serializes sections into the container format, in one
// allocation of exactly the container's size.
func EncodeSnapshot(sections []Section) ([]byte, error) {
	size := headerSize
	for _, s := range sections {
		if len(s.Name) == 0 || len(s.Name) > MaxNameLen {
			return nil, fmt.Errorf("ckpt: section name %q out of bounds (1..%d bytes)", s.Name, MaxNameLen)
		}
		size += 4 + len(s.Name) + 12 + len(s.Data)
	}
	buf := make([]byte, headerSize, size)
	copy(buf, Magic)
	binary.LittleEndian.PutUint32(buf[4:], FormatVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(sections)))
	for _, s := range sections {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Name)))
		buf = append(buf, s.Name...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(s.Data))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s.Data)))
		buf = append(buf, s.Data...)
	}
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(buf[headerSize:]))
	return buf, nil
}

// DecodeSnapshot parses and fully verifies a snapshot image. path is used
// for error context only.
func DecodeSnapshot(path string, buf []byte) (*Snapshot, error) {
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("ckpt: %s: "+format, append([]interface{}{path}, args...)...)
	}
	if len(buf) < headerSize {
		return nil, fail("truncated: %d bytes, need at least %d for the header", len(buf), headerSize)
	}
	if string(buf[0:4]) != Magic {
		return nil, fail("bad magic %q", buf[0:4])
	}
	if v := binary.LittleEndian.Uint32(buf[4:8]); v != FormatVersion {
		return nil, fail("unsupported format version %d (this build reads %d)", v, FormatVersion)
	}
	count := binary.LittleEndian.Uint32(buf[8:12])
	fileCRC := binary.LittleEndian.Uint32(buf[12:16])
	body := buf[headerSize:]

	snap := &Snapshot{path: path, index: make(map[string]int)}
	off := 0
	for i := uint32(0); i < count; i++ {
		ctx := fmt.Sprintf("section %d", i)
		if len(body)-off < 4 {
			return nil, fail("%s: truncated name length", ctx)
		}
		nameLen := binary.LittleEndian.Uint32(body[off:])
		off += 4
		if nameLen == 0 || nameLen > MaxNameLen {
			return nil, fail("%s: name length %d out of bounds (1..%d)", ctx, nameLen, MaxNameLen)
		}
		if uint32(len(body)-off) < nameLen {
			return nil, fail("%s: truncated name", ctx)
		}
		name := string(body[off : off+int(nameLen)])
		off += int(nameLen)
		ctx = fmt.Sprintf("section %q", name)
		if len(body)-off < 12 {
			return nil, fail("%s: truncated payload header", ctx)
		}
		dataCRC := binary.LittleEndian.Uint32(body[off:])
		dataLen := binary.LittleEndian.Uint64(body[off+4:])
		off += 12
		if dataLen > uint64(len(body)-off) {
			return nil, fail("%s: declares %d payload bytes, only %d remain", ctx, dataLen, len(body)-off)
		}
		data := body[off : off+int(dataLen)]
		off += int(dataLen)
		if got := crc32.ChecksumIEEE(data); got != dataCRC {
			return nil, fail("%s: payload checksum mismatch (stored %08x, computed %08x)", ctx, dataCRC, got)
		}
		if _, dup := snap.index[name]; dup {
			return nil, fail("%s: duplicate section", ctx)
		}
		snap.index[name] = len(snap.sections)
		snap.sections = append(snap.sections, Section{Name: name, Data: data})
	}
	if off != len(body) {
		return nil, fail("%d trailing bytes after %d sections", len(body)-off, count)
	}
	if got := crc32.ChecksumIEEE(body); got != fileCRC {
		return nil, fail("file checksum mismatch (stored %08x, computed %08x): section table corrupted", fileCRC, got)
	}
	return snap, nil
}

// WriteSnapshot atomically writes sections to path (temp + fsync + rename).
func WriteSnapshot(path string, sections []Section) error {
	data, err := EncodeSnapshot(sections)
	if err != nil {
		return err
	}
	return WriteFile(path, data)
}

// ReadSnapshot reads and fully verifies the snapshot at path.
func ReadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return DecodeSnapshot(path, data)
}

// WriteFile writes data — an encoded snapshot — to path via a fsynced
// temporary sibling and an atomic rename, then fsyncs the directory, so
// readers only ever observe the previous complete file or the new complete
// file.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	// Persist the rename itself; best-effort (not all filesystems allow
	// directory fsync).
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
