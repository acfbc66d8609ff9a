package mpi

import (
	"fmt"
	"net"
	"time"

	"distlouvain/internal/coord"
)

// CoordWorldConfig describes a rank of a coordinator-rendezvous world: no
// hand-written address list — the rank binds a listener, advertises it to
// the coordinator under (Job, Epoch), and receives the sealed membership
// plus the generation fencing token.
type CoordWorldConfig struct {
	Coord string // coordinator address
	Job   string // job id shared by every rank of the world
	Epoch int    // incarnation number; the supervisor bumps it per relaunch
	Rank  int
	Size  int
	// Listen is the mesh listen address ("host:port", port usually 0).
	// Empty selects "127.0.0.1:0" — fine for single-machine worlds;
	// multi-host ranks must listen on a routable interface.
	Listen string
	// Advertise overrides the address published to peers: empty publishes
	// the bound listener address; "host" or "host:0" publishes that host
	// with the kernel-chosen port (for ranks behind NAT or a chaos proxy);
	// "host:port" is published verbatim.
	Advertise string
	// DialTimeout bounds each connection attempt (coordinator and mesh);
	// ConnectDeadline bounds the whole rendezvous. Zero selects 2s / 30s.
	DialTimeout     time.Duration
	ConnectDeadline time.Duration
	// HeartbeatInterval paces the lease heartbeats; zero selects a third of
	// the coordinator's lease TTL.
	HeartbeatInterval time.Duration
}

// CoordWorld is a TCP endpoint plus the heartbeat session holding its lease.
// When the coordinator fences the generation, the session poisons the match
// queue with *ErrFenced: every rank goroutine blocked in a Recv — and hence
// every collective — fails typed instead of hanging, which is what lets a
// stale rank returning from a healed partition die loudly and promptly.
type CoordWorld struct {
	*tcpEndpoint
	session *coord.Session
	gen     uint64
}

// Gen returns the generation token this world was sealed with.
func (w *CoordWorld) Gen() uint64 { return w.gen }

// Beacon hands one progress payload to the heartbeat session, which forwards
// it through the coordinator to the job's controller. It never blocks; see
// coord.Session.Beacon for when a payload is dropped.
func (w *CoordWorld) Beacon(payload []byte) { w.session.Beacon(payload) }

func (w *CoordWorld) Close() error {
	w.session.Close()
	return w.tcpEndpoint.Close()
}

// Abort closes without the goodbye handshake (crash semantics), still
// releasing the heartbeat session.
func (w *CoordWorld) Abort() {
	w.session.Close()
	w.tcpEndpoint.Abort()
}

// DialCoordWorld joins a coordinator-rendezvous world and establishes the
// fenced full mesh. The returned world fails every blocked operation with
// *ErrFenced if the coordinator later supersedes this generation. A rank
// joining with an already-superseded epoch gets *coord.FencedError
// immediately instead of a world.
func DialCoordWorld(cfg CoordWorldConfig) (*CoordWorld, error) {
	if err := checkPeer(cfg.Rank, cfg.Size, "DialCoordWorld"); err != nil {
		return nil, err
	}
	listen := cfg.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("mpi: rank %d listen %s: %w", cfg.Rank, listen, err)
	}
	adv, err := advertiseAddr(cfg.Advertise, ln.Addr().(*net.TCPAddr))
	if err != nil {
		ln.Close()
		return nil, err
	}
	deadline := cfg.ConnectDeadline
	if deadline <= 0 {
		deadline = 30 * time.Second
	}
	world, err := coord.Join(coord.JoinConfig{
		Coord: cfg.Coord, Job: cfg.Job, Epoch: cfg.Epoch,
		Rank: cfg.Rank, Size: cfg.Size, Addr: adv,
		DialTimeout: cfg.DialTimeout, Deadline: deadline,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	ep, err := dialMesh(TCPWorldConfig{
		Rank:            cfg.Rank,
		Addrs:           world.Addrs,
		DialTimeout:     cfg.DialTimeout,
		ConnectDeadline: deadline,
		Fence:           world.Gen,
	}, ln)
	if err != nil {
		return nil, err
	}
	hb := cfg.HeartbeatInterval
	if hb <= 0 {
		hb = world.LeaseTTL / 3
		if hb <= 0 {
			hb = time.Second
		}
	}
	sess := coord.StartSession(coord.SessionConfig{
		Coord: cfg.Coord, Job: cfg.Job, Gen: world.Gen, Rank: cfg.Rank,
		Interval:    hb,
		DialTimeout: cfg.DialTimeout,
		OnFenced: func(cause error) {
			ep.queue.fail(&ErrFenced{Rank: cfg.Rank, Fence: world.Gen, Cause: cause})
		},
	})
	return &CoordWorld{tcpEndpoint: ep, session: sess, gen: world.Gen}, nil
}

// advertiseAddr resolves the address published to the coordinator from the
// Advertise spec and the bound listener address.
func advertiseAddr(spec string, bound *net.TCPAddr) (string, error) {
	if spec == "" {
		if bound.IP.IsUnspecified() {
			return "", fmt.Errorf("mpi: wildcard listen address %s is not advertisable; set Advertise", bound)
		}
		return bound.String(), nil
	}
	host := spec
	if h, p, err := net.SplitHostPort(spec); err == nil {
		if p != "" && p != "0" {
			return spec, nil // fully specified
		}
		host = h
	}
	if host == "" {
		return "", fmt.Errorf("mpi: advertise spec %q has no host", spec)
	}
	return net.JoinHostPort(host, fmt.Sprint(bound.Port)), nil
}
