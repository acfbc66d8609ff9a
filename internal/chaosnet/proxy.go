// Package chaosnet provides a real-socket chaos proxy for the mpi TCP
// transport: a frame-aware TCP man-in-the-middle that sits in front of one
// rank's mesh listener and injects network faults — asymmetric partitions
// and slow links — at message-frame granularity.
//
// Frame awareness is what separates this from a byte-level toxiproxy: the
// proxy speaks the mpi wire protocol ([rank int32][fence uint64] handshake
// answered by one ack byte, then [tag int32][len uint32][payload] frames),
// so every injected fault lands on a whole-message boundary and the
// surviving byte stream stays parseable.
// A partition therefore looks to the victim exactly like silence (frames
// vanish in flight), not like a corrupted stream, over real kernel sockets,
// so the chaos suite exercises genuine TCP failure modes (half-open
// connections, buffered writes racing a close, reset-versus-FIN).
//
// Deployment: the proxied rank listens on a private address and advertises
// the proxy's address (CoordWorldConfig.Advertise / the -advertise flag);
// peers dial the proxy, the proxy dials the rank. Since rank i accepts from
// every rank j > i, one proxy per rank covers every mesh link. The dialing
// peer's identity is learned from the handshake it sends, so faults target
// (peer rank, direction) pairs.
package chaosnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Direction selects which half of a link a rule applies to, named from the
// proxied rank's point of view.
type Direction int

const (
	// DirIn is peer → proxied rank (what the rank hears).
	DirIn Direction = iota
	// DirOut is proxied rank → peer (what the rank says).
	DirOut
)

func (d Direction) String() string {
	if d == DirIn {
		return "in"
	}
	return "out"
}

// AnyPeer applies a partition to every peer of the proxied rank.
const AnyPeer = -1

const (
	handshakeSize   = 12 // [rank int32][fence uint64]
	frameHeaderSize = 8
	maxFrame        = 1 << 30
	hsTimeout       = 10 * time.Second
)

// rule is the fault state of one (peer, direction) link half: deterministic,
// no probabilities.
type rule struct {
	block bool // partition: discard frames while set
	bps   int  // slow link: pace frames at this many bytes/second
}

type linkKey struct {
	peer int
	dir  Direction
}

// Options configures a Proxy.
type Options struct {
	// Logf, when non-nil, traces injected faults.
	Logf func(format string, args ...any)
}

// Proxy is one chaos MITM instance fronting a single rank's listener.
// All fault-injection methods are safe to call concurrently with traffic.
type Proxy struct {
	ln      net.Listener
	backend string
	opts    Options

	mu     sync.Mutex
	rules  map[linkKey]*rule
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New starts a proxy listening on listen ("host:port", port may be 0) and
// forwarding to backend (the proxied rank's private listen address).
func New(listen, backend string, opts Options) (*Proxy, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("chaosnet: listen %s: %w", listen, err)
	}
	p := &Proxy{
		ln:      ln,
		backend: backend,
		opts:    opts,
		rules:   make(map[linkKey]*rule),
		conns:   make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the address peers should dial (what the proxied rank advertises).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

func (p *Proxy) logf(format string, args ...any) {
	if p.opts.Logf != nil {
		p.opts.Logf(format, args...)
	}
}

func (p *Proxy) rule(peer int, dir Direction) *rule {
	k := linkKey{peer, dir}
	r := p.rules[k]
	if r == nil {
		r = &rule{}
		p.rules[k] = r
	}
	return r
}

// Partition sets or clears a one-way partition: while set, every frame
// flowing in dir for the given peer (or AnyPeer) is silently discarded.
// Blocking exactly one direction produces the asymmetric partition — A can
// hear B but B cannot hear A — that breaks naive failure detectors.
func (p *Proxy) Partition(peer int, dir Direction, on bool) {
	p.mu.Lock()
	p.rule(peer, dir).block = on
	p.mu.Unlock()
	p.logf("chaosnet: partition peer=%d dir=%s on=%v", peer, dir, on)
}

// SlowLink paces the link half at bytesPerSec (zero clears): each frame is
// held for len/rate before forwarding, modelling a thin WAN pipe.
func (p *Proxy) SlowLink(peer int, dir Direction, bytesPerSec int) {
	p.mu.Lock()
	p.rule(peer, dir).bps = bytesPerSec
	p.mu.Unlock()
	p.logf("chaosnet: slow-link peer=%d dir=%s bps=%d", peer, dir, bytesPerSec)
}

// Close shuts the proxy down, severing every connection.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.ln.Close()
	p.wg.Wait()
}

func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handleConn(conn)
		}()
	}
}

// handleConn splices one dialer connection to the backend: forward the
// handshake verbatim (learning the dialer's rank), then run one frame pump
// per direction.
func (p *Proxy) handleConn(dialer net.Conn) {
	if !p.track(dialer) {
		dialer.Close()
		return
	}
	defer p.untrack(dialer)
	defer dialer.Close()

	// Retry the backend dial until the handshake deadline: the proxy may be
	// up before its rank has bound the private listener (it usually is — the
	// rank advertises the proxy, so the proxy exists first). Giving up on
	// the first refused connection would fail a dialer whose rank is merely
	// a moment late.
	deadline := time.Now().Add(hsTimeout)
	var backend net.Conn
	for {
		var err error
		backend, err = net.DialTimeout("tcp", p.backend, time.Until(deadline))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			p.logf("chaosnet: backend dial %s: %v", p.backend, err)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !p.track(backend) {
		backend.Close()
		return
	}
	defer p.untrack(backend)
	defer backend.Close()

	var hs [handshakeSize]byte
	dialer.SetReadDeadline(time.Now().Add(hsTimeout))
	if _, err := io.ReadFull(dialer, hs[:]); err != nil {
		return
	}
	dialer.SetReadDeadline(time.Time{})
	peer := int(int32(binary.LittleEndian.Uint32(hs[:4])))
	if _, err := backend.Write(hs[:]); err != nil {
		return
	}
	var ack [1]byte
	backend.SetReadDeadline(time.Now().Add(hsTimeout))
	if _, err := io.ReadFull(backend, ack[:]); err != nil {
		return
	}
	backend.SetReadDeadline(time.Time{})
	if _, err := dialer.Write(ack[:]); err != nil {
		return
	}
	if ack[0] != 1 {
		return // backend fenced the dialer; both sides are done
	}
	p.logf("chaosnet: link up: peer %d <-> %s", peer, p.backend)

	done := make(chan struct{}, 2)
	go func() {
		p.pump(dialer, backend, peer, DirIn)
		done <- struct{}{}
	}()
	go func() {
		p.pump(backend, dialer, peer, DirOut)
		done <- struct{}{}
	}()
	// Either pump ending (EOF, reset, Close) tears the whole link down, so a
	// half-dead connection cannot linger as a phantom peer.
	<-done
}

// decide returns what to do with one frame: drop it (a partition), or hold
// it for wait before forwarding (a slow link).
func (p *Proxy) decide(peer int, dir Direction, frameLen int) (drop bool, wait time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.rules[linkKey{peer, dir}]
	any := p.rules[linkKey{AnyPeer, dir}]
	if (r != nil && r.block) || (any != nil && any.block) {
		return true, 0
	}
	if r != nil && r.bps > 0 {
		wait = time.Duration(float64(frameLen) / float64(r.bps) * float64(time.Second))
	}
	return false, wait
}

// pump forwards whole frames src → dst, applying the link's fault rules.
func (p *Proxy) pump(src, dst net.Conn, peer int, dir Direction) {
	br := bufio.NewReaderSize(src, 1<<16)
	var hdr [frameHeaderSize]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxFrame {
			return // corrupt upstream; sever the link
		}
		frame := make([]byte, frameHeaderSize+int(n))
		copy(frame, hdr[:])
		if n > 0 {
			if _, err := io.ReadFull(br, frame[frameHeaderSize:]); err != nil {
				return
			}
		}
		drop, wait := p.decide(peer, dir, len(frame))
		if drop {
			p.logf("chaosnet: dropped frame peer=%d dir=%s tag=%d len=%d", peer, dir, int32(binary.LittleEndian.Uint32(hdr[:4])), n)
			continue
		}
		if wait > 0 {
			time.Sleep(wait)
		}
		if _, err := dst.Write(frame); err != nil {
			return
		}
	}
}
