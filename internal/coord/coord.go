// Package coord implements the rendezvous coordinator through which every
// world of rank processes forms (dlouvain -transport tcp-local runs one in
// process, multi-host deployments run cmd/dcoord). Ranks register under a
// job id and block on a join barrier; when the expected world size has
// registered, the coordinator seals the membership and hands every rank the
// full address map plus a monotonically increasing generation token.
//
// The generation is a fencing token: every seal — including the relaunch of
// the same job at a higher epoch after a failure — bumps it, and the
// coordinator rejects heartbeats carrying a superseded generation with a
// typed *FencedError. A stale rank returning from a healed network partition
// therefore learns it has been fenced instead of silently re-entering (and
// corrupting) a live world; the mpi layer additionally embeds the token in
// its mesh handshake so the data plane rejects stale dialers even when the
// control plane has not yet noticed them.
//
// The same server doubles as the WAN supervision rendezvous: host agents
// register under a job with a slot capacity and hold a lease by pinging
// within the configured TTL; a controller (the supervising driver) attaches
// to the job, learns the host set, and routes spawn/signal commands to
// agents through the coordinator. A host whose lease lapses is condemned
// server-side — its registration is dropped and the controller is told, so
// the driver can re-place the dead host's ranks on the survivors.
//
// The rank heartbeat session is also the ranks' progress channel: a session
// line may carry an opaque beacon payload, which the coordinator checks
// against the generation like a heartbeat and forwards to the job's
// controller tagged with the rank and its world's epoch. A process world thus
// has one control plane — ranks and the driver reach only the coordinator.
//
// All protocol traffic is newline-delimited JSON: one request or event per
// line, human readable, and trivially inspectable with nc. Every line is read
// through one bounded reader, so a peer that never sends a newline cannot
// make either side buffer without limit.
package coord

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// FencedError reports that a presented generation token has been superseded:
// the world the caller belongs to was replaced (relaunch, partition heal on
// the losing side) and the caller must not touch the live world.
type FencedError struct {
	Job     string
	Gen     uint64 // the stale token the caller presented
	Current uint64 // the generation that superseded it
}

func (e *FencedError) Error() string {
	return fmt.Sprintf("coord: job %q generation %d fenced by generation %d", e.Job, e.Gen, e.Current)
}

// World is the sealed membership a successful Join returns.
type World struct {
	// Gen is the fencing token for this incarnation of the job. It is
	// strictly greater than the token of any world the coordinator sealed
	// before it (for any epoch of the same job).
	Gen uint64
	// Addrs[i] is the advertised mesh address of rank i.
	Addrs []string
	// LeaseTTL is the coordinator's lease length: a heartbeat or agent ping
	// cadence comfortably inside it keeps the registration alive.
	LeaseTTL time.Duration
}

// Response codes. Fenced and conflict are terminal for the caller's current
// incarnation; retry marks conditions that a fresh attempt may resolve
// (barrier timed out, coordinator restarted and lost the job).
const (
	codeFenced   = "fenced"
	codeConflict = "conflict"
	codeRetry    = "retry"
)

// maxLine bounds one protocol line. The longest legitimate line is a spawn
// command carrying a rank's argv and environment; anything longer is a
// corrupt or hostile stream, and the reader ends the session instead of
// buffering it.
const maxLine = 1 << 20

// maxBeacon bounds the beacon payload one heartbeat-session line may carry.
const maxBeacon = 4096

// lineReader decodes exactly one JSON value per newline-terminated line and
// never buffers more than maxLine bytes.
type lineReader struct{ sc *bufio.Scanner }

func newLineReader(r io.Reader) *lineReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxLine)
	return &lineReader{sc}
}

// decode reads the next line into v. End of stream, a line longer than
// maxLine and a line that is not one JSON value are all errors, and each ends
// the session that reads it.
func (l *lineReader) decode(v any) error {
	if !l.sc.Scan() {
		if err := l.sc.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	return json.Unmarshal(l.sc.Bytes(), v)
}

// request is the first line of every client connection; Op selects the
// session kind ("join", "heartbeat", "agent", "control"). Heartbeat sessions
// repeat the same shape on every subsequent line; a line with a Beacon is a
// progress report for the controller and gets no reply unless it is fenced.
type request struct {
	Op     string          `json:"op"`
	Job    string          `json:"job"`
	Epoch  int             `json:"epoch,omitempty"`
	Rank   int             `json:"rank,omitempty"`
	Size   int             `json:"size,omitempty"`
	Addr   string          `json:"addr,omitempty"`
	Gen    uint64          `json:"gen,omitempty"`
	Host   string          `json:"host,omitempty"`
	Slots  int             `json:"slots,omitempty"`
	Beacon json.RawMessage `json:"beacon,omitempty"`
}

// response answers a join or heartbeat line.
type response struct {
	OK      bool     `json:"ok"`
	Code    string   `json:"code,omitempty"`
	Error   string   `json:"error,omitempty"`
	Gen     uint64   `json:"gen,omitempty"`
	Addrs   []string `json:"addrs,omitempty"`
	LeaseMS int64    `json:"lease_ms,omitempty"`
}

// command flows controller → coordinator → agent.
type command struct {
	Cmd  string   `json:"cmd"` // "spawn" or "signal"
	ID   string   `json:"id,omitempty"`
	Host string   `json:"host,omitempty"` // spawn target (controller side only)
	Argv []string `json:"argv,omitempty"`
	Dir  string   `json:"dir,omitempty"`
	Env  []string `json:"env,omitempty"`
	Sig  int      `json:"sig,omitempty"`
}

// Command kinds an Agent receives.
const (
	CmdSpawn  = "spawn"
	CmdSignal = "signal"
)

// event flows agent → coordinator → controller (and coordinator → controller
// for membership changes and rank beacons).
type event struct {
	Event  string          `json:"event"`
	Host   string          `json:"host,omitempty"`
	Slots  int             `json:"slots,omitempty"`
	ID     string          `json:"id,omitempty"`
	Code   int             `json:"code,omitempty"`
	Err    string          `json:"err,omitempty"`
	Rank   int             `json:"rank,omitempty"`
	Epoch  int             `json:"epoch,omitempty"`
	Beacon json.RawMessage `json:"beacon,omitempty"`
}

// Event kinds a Controller observes.
const (
	EventHost     = "host"      // a host agent is registered (snapshot + live)
	EventHostLost = "host-lost" // a host's lease lapsed or its agent hung up
	EventSync     = "sync"      // end of the registration snapshot on attach
	EventExit     = "exit"      // a spawned process exited (Code, Err)
	EventBeacon   = "beacon"    // a rank's progress payload (Rank, Epoch, Beacon)
	EventPing     = "ping"      // agent lease renewal (not forwarded)
)

// HostLost begins the Err of the exit event the coordinator synthesizes for
// each spawn of a host it condemns, so controllers can tell a lost host from
// a rank's own death.
const HostLost = "host lost"
