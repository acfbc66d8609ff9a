package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
)

// Fingerprint is a stable 64-bit FNV-1a digest rendered as 16 lowercase hex
// characters. Two artifacts — an algorithm configuration and a graph input —
// are fingerprinted with it, and the pair (graph, config) identifies a
// Louvain result completely: the run is deterministic given both, regardless
// of rank count or thread count.
//
// Fingerprints are persisted (checkpoint manifests, the service result
// cache, job records), so their derivation is a compatibility contract:
// changing what bytes feed the hash invalidates every stored digest. The
// cross-version stability tests in fingerprint_test.go pin known inputs to
// known digests; a change that trips them must bump the relevant on-disk
// schema version instead of silently re-keying old artifacts.
type Fingerprint string

// Fingerprint digests the trajectory-determining parameters of the
// configuration. A checkpoint is only valid for the exact move sequence its
// configuration produces, so the manifest records this digest and Resume
// refuses a mismatch; the service result cache uses it (with the graph
// fingerprint) as the cache key. Deliberately excluded: Threads,
// GatherOutput, the checkpoint settings and the Progress / Tracer /
// Interrupted hooks — they change performance or output plumbing, never the
// result, so a resume (or a cache lookup) may alter them freely;
// TestConfigFieldsPinned holds both lists against the struct. The etcexit
// position carries the constant DefaultETCExit: it was once a field no caller
// set, and keeping its bytes keeps every stored digest, manifest and cache
// key valid. The last two tokens name the rules of the sweep that are not
// configuration: the ΔQ tie rule (tieBefore; it replaced "coloring=<bool>"
// when ties stopped breaking towards the smallest community ID) and the return
// rule of a damped phase (evaluateVertex; appended when it was introduced). A
// checkpoint or cached result of a trajectory under other rules therefore
// never matches, and Resume refuses it with the typed mismatch instead of
// continuing it under these.
func (c Config) Fingerprint() Fingerprint {
	c.fill() // value receiver: canonicalize defaults without mutating the caller
	h := fnv.New64a()
	fmt.Fprintf(h, "tau=%v;sched=%v;alpha=%v;etc=%v;etcexit=%v;maxphases=%d;maxiter=%d;seed=%d;tie=mix64;returns=damped",
		c.Tau, c.TauSchedule, c.Alpha, c.ETC, DefaultETCExit, c.MaxPhases, c.MaxIterations, c.Seed)
	return Fingerprint(fmt.Sprintf("%016x", h.Sum64()))
}

// Hash is the string form of Fingerprint, kept for existing callers (the
// checkpoint manifest schema stores it as a plain string).
func (c Config) Hash() string { return string(c.Fingerprint()) }

// GraphFingerprint digests a graph input file byte-for-byte (header and
// records alike), so any change to vertex count, edge set, weights or edge
// order re-keys it. Edge order matters on purpose: the segmented parallel
// read assigns records to ranks by file position, so two files with the same
// edge set in different orders are different inputs to the partitioner.
func GraphFingerprint(path string) (Fingerprint, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := fnv.New64a()
	// Through one small buffer: the daemon fingerprints every submitted graph,
	// cache hits included.
	if _, err := io.CopyBuffer(h, struct{ io.Reader }{f}, make([]byte, 32<<10)); err != nil {
		return "", fmt.Errorf("core: fingerprint %s: %w", path, err)
	}
	return Fingerprint(fmt.Sprintf("%016x", h.Sum64())), nil
}
