package mpi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"distlouvain/internal/backoff"
)

// tcpFrameHeader is [tag int32][length uint32]; the sender's rank is
// established once per connection by the handshake, so it is not repeated
// per message.
const tcpHeaderSize = 8

// handshakeSize is the dialer's half of the one mesh handshake,
// [rank int32][fence uint64]; the acceptor answers with one ack byte.
const handshakeSize = 12

// maxTCPFrame bounds a single message to guard against corrupt length
// prefixes; 1 GiB is far above anything the Louvain exchanges produce.
const maxTCPFrame = 1 << 30

// goodbyeTag marks the control frame an orderly Close sends as its last
// word on every connection. Application tags are non-negative and the
// collective tags are positive, so the value cannot collide with data. A
// peer whose stream ends after a goodbye departed gracefully (all of its
// messages were delivered first — TCP ordering); a stream that ends without
// one belongs to a crashed or killed peer and poisons the endpoint with
// ErrPeerLost.
const goodbyeTag = -2

// TCPWorldConfig describes a TCP world. Addrs[i] is the listen address of
// rank i ("host:port"); every rank must use the same list in the same order.
type TCPWorldConfig struct {
	Rank  int
	Addrs []string
	// DialTimeout bounds each connection attempt; rendezvous retries until
	// ConnectDeadline. Zero values select 2s and 30s respectively.
	DialTimeout     time.Duration
	ConnectDeadline time.Duration
	// Fence is the token both ends of every mesh connection must present:
	// the dialer announces [rank int32][fence uint64] and the acceptor
	// answers with one accept/reject byte. A coordinator world presents the
	// generation it was sealed with; a static address-list world presents 0
	// on both sides. On a mismatch the connection is refused: the acceptor
	// drops it without consuming a rendezvous slot, and the dialer fails
	// typed with *ErrFenced instead of joining (or hanging on) a world it
	// does not belong to.
	Fence uint64
}

// tcpEndpoint implements Transport over a full mesh of TCP connections.
// Rank i accepts connections from ranks j > i and dials ranks j < i, so each
// unordered pair owns exactly one connection.
type tcpEndpoint struct {
	rank, size int
	queue      *matchQueue
	listener   net.Listener

	mu      sync.Mutex
	writers []*tcpWriter // indexed by peer rank; nil at self
	closed  bool
	wg      sync.WaitGroup
}

// tcpWriter serializes frames onto one connection from a queue drained by a
// dedicated goroutine, keeping Send non-blocking as the Transport contract
// requires. When the goroutine dies on a write error it records the cause
// and closes done, so enqueue fails fast instead of filling the channel and
// blocking the sender forever. Each frame written is handed to pool (when
// not nil) as soon as the buffered writer has copied it, for the next Send
// or receive of the rank to fill: a frame enqueued is the writer's alone.
type tcpWriter struct {
	conn net.Conn
	ch   chan []byte   // fully framed messages; never closed (see below)
	stop chan struct{} // closed by close(): drain buffered frames and exit
	done chan struct{} // closed after err is set (or on clean drain)
	err  error         // write failure; read only after <-done
}

// newTCPWriter starts the drain goroutine. onError, if non-nil, is invoked
// once with the write error so the endpoint can mark the peer lost.
//
// The frame channel is deliberately never closed: concurrent senders (the
// Transport contract allows point-to-point calls from multiple goroutines,
// and fault-injected delayed deliveries arrive from timers) would race a
// close with a send. Shutdown is signalled through stop instead, and the
// goroutine drains whatever is already buffered before exiting so a
// goodbye frame enqueued just before close() still reaches the wire.
func newTCPWriter(conn net.Conn, pool *matchQueue, onError func(error)) *tcpWriter {
	w := &tcpWriter{
		conn: conn,
		ch:   make(chan []byte, 1024),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		bw := bufio.NewWriterSize(conn, 1<<16)
		write := func(frame []byte) bool {
			if _, err := bw.Write(frame); err != nil {
				w.fail(err, onError)
				return false
			}
			if pool != nil {
				pool.release(frame)
			}
			return true
		}
		for {
			select {
			case frame := <-w.ch:
				if !write(frame) {
					return
				}
				// Flush when no more frames are immediately pending so
				// that small control messages are not delayed behind the
				// buffer.
				if len(w.ch) == 0 {
					if err := bw.Flush(); err != nil {
						w.fail(err, onError)
						return
					}
				}
			case <-w.stop:
				for {
					select {
					case frame := <-w.ch:
						if !write(frame) {
							return
						}
					default:
						if err := bw.Flush(); err != nil {
							w.fail(err, onError)
							return
						}
						close(w.done)
						return
					}
				}
			}
		}
	}()
	return w
}

func (w *tcpWriter) fail(err error, onError func(error)) {
	w.err = err
	close(w.done)
	if onError != nil {
		onError(err)
	}
}

// failure reports why the writer stopped; call only after done is closed.
func (w *tcpWriter) failure() error {
	if w.err != nil {
		return fmt.Errorf("mpi: tcp write: %w", w.err)
	}
	return ErrClosed
}

// enqueue hands a frame to the drain goroutine. It never blocks on a dead
// writer: once the goroutine has exited, every call — including one that
// finds the channel full — returns the write error.
func (w *tcpWriter) enqueue(frame []byte) error {
	select {
	case <-w.done:
		return w.failure()
	default:
	}
	select {
	case w.ch <- frame:
		return nil
	case <-w.done:
		return w.failure()
	}
}

func (w *tcpWriter) close() {
	close(w.stop)
	<-w.done
	w.conn.Close()
}

// DialTCPWorld performs the full-mesh rendezvous described by cfg and
// returns this rank's transport. It blocks until all 2-way connections are
// established or the deadline expires.
func DialTCPWorld(cfg TCPWorldConfig) (Transport, error) {
	size := len(cfg.Addrs)
	if size <= 0 {
		return nil, fmt.Errorf("mpi: empty address list")
	}
	if err := checkPeer(cfg.Rank, size, "DialTCPWorld"); err != nil {
		return nil, err
	}
	var ln net.Listener
	if size > 1 {
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("mpi: rank %d listen %s: %w", cfg.Rank, cfg.Addrs[cfg.Rank], err)
		}
	}
	return dialMesh(cfg, ln)
}

// acceptHandshake validates one inbound connection. A rejected dialer — a
// rank presenting another fence than this world's (stale, or of a different
// world), a rank id out of range, garbage bytes, or a connection that never
// completes the handshake — is closed and
// reported as !ok WITHOUT failing the rendezvous: the caller keeps accepting,
// so a stray connection cannot corrupt a live world's formation.
func acceptHandshake(conn net.Conn, cfg TCPWorldConfig, hsTimeout time.Duration) (peer int, ok bool) {
	conn.SetDeadline(time.Now().Add(hsTimeout))
	var hs [handshakeSize]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		conn.Close()
		return 0, false
	}
	peer = int(int32(binary.LittleEndian.Uint32(hs[:4])))
	ok = peer > cfg.Rank && peer < len(cfg.Addrs) &&
		binary.LittleEndian.Uint64(hs[4:]) == cfg.Fence
	ack := byte(0)
	if ok {
		ack = 1
	}
	if _, err := conn.Write([]byte{ack}); err != nil {
		ok = false
	}
	if !ok {
		conn.Close()
		return 0, false
	}
	conn.SetDeadline(time.Time{})
	return peer, true
}

// dialHandshake announces this rank on an outbound connection. fenced
// reports a definitive rejection (the acceptor answered with a reject
// byte): terminal, no point retrying.
func dialHandshake(conn net.Conn, cfg TCPWorldConfig, end time.Time) (err error, fenced bool) {
	conn.SetDeadline(end)
	var hs [handshakeSize]byte
	binary.LittleEndian.PutUint32(hs[:4], uint32(int32(cfg.Rank)))
	binary.LittleEndian.PutUint64(hs[4:], cfg.Fence)
	if _, err := conn.Write(hs[:]); err != nil {
		return err, false
	}
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return err, false
	}
	if ack[0] != 1 {
		return nil, true
	}
	conn.SetDeadline(time.Time{})
	return nil, false
}

// dialMesh performs the full-mesh rendezvous over an already-bound listener
// (owned by the returned endpoint from here on, including on error).
// DialTCPWorld binds the listener from the address list; DialCoordWorld
// binds it before registering so it can advertise the kernel-chosen port.
func dialMesh(cfg TCPWorldConfig, ln net.Listener) (*tcpEndpoint, error) {
	size := len(cfg.Addrs)
	dialTimeout := cfg.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	deadline := cfg.ConnectDeadline
	if deadline <= 0 {
		deadline = 30 * time.Second
	}

	ep := &tcpEndpoint{
		rank:     cfg.Rank,
		size:     size,
		queue:    newMatchQueue(),
		writers:  make([]*tcpWriter, size),
		listener: ln,
	}
	if size == 1 {
		return ep, nil
	}

	type dialed struct {
		peer int
		conn net.Conn
		err  error
	}
	// Exactly size-1 results are always delivered: the accept goroutine
	// reports one slot per successful handshake (rejected connections are
	// closed and NOT counted) and fills every remaining slot when the
	// listener dies, and each dial goroutine reports its own. That fixed
	// count is what lets the error path below drain and close stragglers
	// instead of leaking connections delivered after an early return.
	results := make(chan dialed, size)

	// Accept from higher-ranked peers. The listener deadline makes a rank
	// that never starts a rendezvous error instead of an eternal Accept.
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Now().Add(deadline))
	}
	nAccept := size - 1 - cfg.Rank
	go func() {
		accepted := 0
		for accepted < nAccept {
			conn, err := ln.Accept()
			if err != nil {
				// Listener broken (or closed by the error path); no more
				// connections are coming — report every remaining slot.
				for ; accepted < nAccept; accepted++ {
					results <- dialed{err: fmt.Errorf("mpi: rank %d accept: %w", cfg.Rank, err)}
				}
				return
			}
			peer, ok := acceptHandshake(conn, cfg, dialTimeout)
			if !ok {
				continue
			}
			results <- dialed{peer: peer, conn: conn}
			accepted++
		}
	}()

	// Dial lower-ranked peers, retrying until the deadline to tolerate
	// ranks that start listening at slightly different times. Retries back
	// off exponentially with jitter: a supervised world relaunching after a
	// failure has every rank redialing at once, and a fixed-interval spin
	// would hammer a listener that is slow to come back in lockstep. The
	// jitter stream is seeded per (rank, peer) so the world's retry
	// schedules decorrelate without global RNG state.
	for peer := 0; peer < cfg.Rank; peer++ {
		go func(peer int) {
			var lastErr error
			end := time.Now().Add(deadline)
			sl := backoff.NewSleeper(backoff.Policy{
				Base: 10 * time.Millisecond,
				Max:  2 * time.Second,
				Seed: (uint64(cfg.Rank)<<32|uint64(peer))*0x9e3779b97f4a7c15 | 1,
			})
			for {
				conn, err := net.DialTimeout("tcp", cfg.Addrs[peer], dialTimeout)
				if err == nil {
					var fenced bool
					err, fenced = dialHandshake(conn, cfg, end)
					if err == nil && !fenced {
						results <- dialed{peer: peer, conn: conn}
						return
					}
					conn.Close()
					if fenced {
						results <- dialed{err: fmt.Errorf("mpi: rank %d dial rank %d (%s): %w",
							cfg.Rank, peer, cfg.Addrs[peer], &ErrFenced{Rank: cfg.Rank, Fence: cfg.Fence})}
						return
					}
				}
				lastErr = err
				if !sl.Sleep(end) {
					break
				}
			}
			results <- dialed{err: fmt.Errorf("mpi: rank %d dial rank %d (%s): %w", cfg.Rank, peer, cfg.Addrs[peer], lastErr)}
		}(peer)
	}

	need := size - 1
	for i := 0; i < need; i++ {
		d := <-results
		if d.err != nil {
			ep.Close() // also closes the listener, unblocking the acceptor
			go func(remaining int) {
				for j := 0; j < remaining; j++ {
					if r := <-results; r.conn != nil {
						r.conn.Close()
					}
				}
			}(need - 1 - i)
			return nil, d.err
		}
		if d.conn == nil || ep.writers[d.peer] != nil {
			// Duplicate or bogus slot — treat as a protocol failure rather
			// than silently overwriting an established connection.
			if d.conn != nil {
				d.conn.Close()
			}
			ep.Close()
			go func(remaining int) {
				for j := 0; j < remaining; j++ {
					if r := <-results; r.conn != nil {
						r.conn.Close()
					}
				}
			}(need - 1 - i)
			return nil, fmt.Errorf("mpi: rank %d duplicate rendezvous with rank %d", cfg.Rank, d.peer)
		}
		if tc, ok := d.conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		peer := d.peer
		ep.writers[peer] = newTCPWriter(d.conn, ep.queue, func(err error) {
			ep.peerLost(peer, err)
		})
		ep.wg.Add(1)
		go ep.readLoop(peer, d.conn)
	}
	return ep, nil
}

// peerLost records a terminal peer failure: every pending and future Recv on
// this endpoint that cannot be satisfied from already-delivered messages
// fails with *ErrPeerLost. During an orderly Close the peer's disconnect is
// expected, so it is not recorded.
func (e *tcpEndpoint) peerLost(peer int, cause error) {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return
	}
	e.queue.fail(&ErrPeerLost{Peer: peer, Cause: cause})
}

// readLoop parses frames from one peer connection into the match queue.
// An exit without a preceding goodbye frame while the endpoint is still
// live — connection reset, short read, corrupt or oversized frame — is a
// peer loss and poisons the queue with the recorded cause instead of being
// silently dropped.
func (e *tcpEndpoint) readLoop(peer int, conn net.Conn) {
	defer e.wg.Done()
	br := bufio.NewReaderSize(conn, 1<<16)
	var hdr [tcpHeaderSize]byte
	departed := false
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if departed {
				return // orderly shutdown already recorded
			}
			if err == io.EOF {
				err = fmt.Errorf("connection closed without shutdown handshake: %w", err)
			}
			e.peerLost(peer, err)
			return
		}
		tag := int(int32(binary.LittleEndian.Uint32(hdr[0:4])))
		n := binary.LittleEndian.Uint32(hdr[4:8])
		if tag == goodbyeTag && n == 0 {
			departed = true
			e.queue.depart(peer, &ErrPeerLost{Peer: peer, Cause: errDeparted})
			continue
		}
		if n > maxTCPFrame {
			e.peerLost(peer, fmt.Errorf("frame length %d exceeds limit %d (corrupt stream?)", n, maxTCPFrame))
			return
		}
		if departed {
			e.peerLost(peer, fmt.Errorf("data frame (tag %d) after shutdown handshake", tag))
			return
		}
		var data []byte
		if n > 0 {
			data = e.queue.acquire(int(n))
			if got, err := io.ReadFull(br, data); err != nil {
				e.peerLost(peer, fmt.Errorf("truncated frame (%d of %d payload bytes): %w", got, n, err))
				return
			}
		}
		if e.queue.push(Message{From: peer, Tag: tag, Data: data}) != nil {
			return
		}
	}
}

// errDeparted is the cause recorded for peers that shut down gracefully.
var errDeparted = fmt.Errorf("peer endpoint closed (finished or shut down)")

func (e *tcpEndpoint) Rank() int { return e.rank }
func (e *tcpEndpoint) Size() int { return e.size }

func (e *tcpEndpoint) SendSegments(to, tag int, segs [][]byte) error {
	if err := checkPeer(to, e.size, "Send"); err != nil {
		return err
	}
	n := segmentsLen(segs)
	if to == e.rank {
		return e.queue.push(Message{From: e.rank, Tag: tag, Data: concat(e.queue.acquire(n), segs)})
	}
	e.mu.Lock()
	w := e.writers[to]
	closed := e.closed
	e.mu.Unlock()
	if closed || w == nil {
		return ErrClosed
	}
	frame := e.queue.acquire(tcpHeaderSize + n)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(frame[4:8], uint32(n))
	concat(frame[tcpHeaderSize:], segs)
	return w.enqueue(frame)
}

func (e *tcpEndpoint) Release(data []byte) { e.queue.release(data) }

func (e *tcpEndpoint) acquire(n int) []byte { return e.queue.acquire(n) }

func (e *tcpEndpoint) Recv(from, tag int) (Message, error) {
	return e.RecvTimeout(from, tag, 0)
}

func (e *tcpEndpoint) RecvTimeout(from, tag int, timeout time.Duration) (Message, error) {
	if from != AnySource {
		if err := checkPeer(from, e.size, "Recv"); err != nil {
			return Message{}, err
		}
	}
	return e.queue.pop(from, tag, timeout)
}

// Close shuts the endpoint down in an orderly fashion: a goodbye frame is
// flushed to every peer before the connections close, so surviving ranks
// can tell this departure from a crash.
func (e *tcpEndpoint) Close() error { return e.shutdown(true) }

// Abort closes the endpoint without the goodbye handshake, so peers observe
// an unexplained stream end and fail with ErrPeerLost — the behaviour of a
// crashed process. Fault injection (FaultTransport.Kill) uses it.
func (e *tcpEndpoint) Abort() { e.shutdown(false) }

func (e *tcpEndpoint) shutdown(goodbye bool) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	writers := e.writers
	e.mu.Unlock()
	if goodbye {
		tag := int32(goodbyeTag)
		for _, w := range writers {
			if w != nil {
				// One frame each: a writer recycles what it has written.
				frame := make([]byte, tcpHeaderSize)
				binary.LittleEndian.PutUint32(frame[0:4], uint32(tag))
				w.enqueue(frame) // best-effort; dead writers just error
			}
		}
	}
	for _, w := range writers {
		if w != nil {
			w.close()
		}
	}
	if e.listener != nil {
		e.listener.Close()
	}
	e.queue.close()
	e.wg.Wait()
	return nil
}
