package ckpt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// ManifestName is the manifest file inside a checkpoint directory. It is
// only ever replaced by an atomic rename, so it always points at a phase
// whose per-rank snapshots all landed (the commit protocol barriers before
// rank 0 writes it).
const ManifestName = "MANIFEST.json"

// ManifestVersion is the current manifest schema version.
const ManifestVersion = 1

// ErrNoCheckpoint reports that a directory holds no committed checkpoint.
var ErrNoCheckpoint = errors.New("ckpt: no checkpoint manifest")

// Manifest records the latest complete checkpoint of a run: which phase the
// per-rank snapshot files capture, the world that wrote them, and the
// fingerprint of the algorithm configuration (a resume must match it — the
// snapshot is only valid for the trajectory those parameters produce).
type Manifest struct {
	Version    int      `json:"version"`
	WorldSize  int      `json:"world_size"`
	ConfigHash string   `json:"config_hash"`
	Phase      int      `json:"phase"` // completed phases; resume continues at this index
	OrigN      int64    `json:"orig_vertices"`
	CoarseN    int64    `json:"coarse_vertices"`
	Files      []string `json:"files"` // per writing rank, relative to the directory
}

// RankFileName names the snapshot file of one rank at one phase boundary.
func RankFileName(phase, rank int) string {
	return fmt.Sprintf("phase-%05d-rank-%05d.ckpt", phase, rank)
}

func (m *Manifest) validate(path string) error {
	switch {
	case m.Version != ManifestVersion:
		return fmt.Errorf("ckpt: %s: unsupported manifest version %d (this build reads %d)", path, m.Version, ManifestVersion)
	case m.WorldSize <= 0:
		return fmt.Errorf("ckpt: %s: invalid world size %d", path, m.WorldSize)
	case m.Phase <= 0:
		return fmt.Errorf("ckpt: %s: invalid phase %d", path, m.Phase)
	case m.OrigN <= 0 || m.CoarseN <= 0:
		return fmt.Errorf("ckpt: %s: invalid vertex counts (orig %d, coarse %d)", path, m.OrigN, m.CoarseN)
	case len(m.Files) != m.WorldSize:
		return fmt.Errorf("ckpt: %s: %d snapshot files for world size %d", path, len(m.Files), m.WorldSize)
	}
	for _, f := range m.Files {
		if f == "" || filepath.Base(f) != f {
			return fmt.Errorf("ckpt: %s: snapshot file name %q must be a bare file name", path, f)
		}
	}
	return nil
}

// WriteManifest atomically commits m as the directory's manifest. The
// previous manifest (if any) stays intact until the new one is completely
// on disk.
func WriteManifest(dir string, m *Manifest) error {
	if err := m.validate(filepath.Join(dir, ManifestName)); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("ckpt: encode manifest: %w", err)
	}
	return WriteFile(filepath.Join(dir, ManifestName), append(data, '\n'))
}

// ReadManifest loads and validates the directory's manifest. A missing
// manifest is reported as ErrNoCheckpoint.
func ReadManifest(dir string) (*Manifest, error) {
	path := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w in %s", ErrNoCheckpoint, dir)
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("ckpt: %s: corrupt manifest: %w", path, err)
	}
	if err := m.validate(path); err != nil {
		return nil, err
	}
	return &m, nil
}

// PruneRank garbage-collects this rank's snapshot files down to the `keep`
// most recent phases (keep < 1 is treated as 1), plus the temporaries of
// phases no newer than keepPhase, which are abandoned. keepPhase — the phase
// the committed manifest references — is always retained regardless of its
// position in the ordering, so a resume can never lose its source files, and
// so is every newer phase, file or temporary: in a reused directory it is an
// earlier run's leftover, which the next write of its phase replaces, and a
// quota that counted it would evict the commit. It is called only after the
// keepPhase manifest has been committed, so everything it removes is
// unreferenced. Best-effort: removal errors are ignored (a leftover file is
// garbage, not a hazard).
func PruneRank(dir string, rank, keepPhase, keep int) {
	if keep < 1 {
		keep = 1
	}
	pattern := fmt.Sprintf("phase-*-rank-%05d.ckpt", rank)
	matches, _ := filepath.Glob(filepath.Join(dir, pattern))
	type phaseFile struct {
		phase int
		path  string
	}
	files := make([]phaseFile, 0, len(matches))
	for _, p := range matches {
		var ph, rk int
		if _, err := fmt.Sscanf(filepath.Base(p), "phase-%d-rank-%d.ckpt", &ph, &rk); err != nil || rk != rank {
			continue // foreign file caught by the glob; leave it alone
		}
		files = append(files, phaseFile{phase: ph, path: p})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].phase > files[j].phase })
	kept := 0
	for _, f := range files {
		inQuota := kept < keep
		if inQuota {
			kept++
		}
		// The manifest-referenced phase survives even outside the quota —
		// it is what a resume would read — and so does every newer one: a
		// dead run's leftover that the next write of its phase replaces.
		if inQuota || f.phase >= keepPhase {
			continue
		}
		os.Remove(f.path)
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, pattern+".tmp"))
	for _, p := range tmps {
		var ph, rk int
		if _, err := fmt.Sscanf(filepath.Base(p), "phase-%d-rank-%d.ckpt.tmp", &ph, &rk); err == nil && rk == rank && ph <= keepPhase {
			os.Remove(p)
		}
	}
}
