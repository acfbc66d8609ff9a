// Package mpi implements the message-passing runtime this repository uses in
// place of MPI. It provides the subset of MPI-1 semantics the distributed
// Louvain algorithm needs: tagged point-to-point messages, barriers,
// broadcasts, reductions, exclusive prefix scans, gathers and personalized
// all-to-all exchanges, plus traffic accounting.
//
// Two transports are provided:
//
//   - the in-process transport (NewInprocWorld), where each rank is a
//     goroutine and messages are deep-copied byte slices. Copying is
//     deliberate: it enforces the distributed-memory discipline — ranks can
//     never observe each other's mutations except through messages — so the
//     algorithm code is honest about what would cross a network. The copy
//     lands in a buffer the receiver released (Transport.Release) when one
//     fits, as an MPI receive lands in a buffer the caller posts.
//
//   - the TCP transport (DialTCPWorld), where each rank is an OS process and
//     messages travel over a full mesh of TCP connections with
//     length-prefixed frames. This is the "custom RPC messaging layer" that
//     stands in for cray-mpich in the paper's experiments.
//
// All collectives are built on the point-to-point layer, exactly as a small
// MPI implementation would do, using binomial trees and dissemination
// patterns with O(log p) rounds.
package mpi

import (
	"errors"
	"fmt"
	"os"
	"time"
)

// AnySource can be passed as the source rank of Recv to match a message from
// any sender, mirroring MPI_ANY_SOURCE.
const AnySource = -1

// AnyTag can be passed as the tag of Recv to match any tag, mirroring
// MPI_ANY_TAG.
const AnyTag = -1

// MaxUserTag is the largest tag value available to applications. Tags above
// it are reserved for the collective implementations.
const MaxUserTag = 1<<20 - 1

// ErrClosed is returned by operations on a communicator whose transport has
// been shut down.
var ErrClosed = errors.New("mpi: transport closed")

// ErrPeerLost is the terminal error of a communicator that has lost contact
// with a peer: the connection reset, the stream ended while messages were
// still expected, or the peer sent a malformed frame. Once a transport
// records a peer loss, every pending and future Recv (and therefore every
// collective) on that endpoint fails with it rather than blocking forever —
// messages that had already arrived are still delivered first. Use
// errors.As to recover the peer rank and cause.
type ErrPeerLost struct {
	Peer  int   // rank of the lost peer
	Cause error // underlying I/O or protocol error
}

func (e *ErrPeerLost) Error() string {
	return fmt.Sprintf("mpi: peer rank %d lost: %v", e.Peer, e.Cause)
}

func (e *ErrPeerLost) Unwrap() error { return e.Cause }

// ErrFenced is the terminal error of a rank whose generation token has been
// superseded: a newer incarnation of its world sealed while it was
// partitioned away or stalled. It surfaces in two places — a mesh dial whose
// handshake the acceptor rejected because the two ends presented different
// tokens (a static world's token is 0, so this also covers a static rank
// dialing into a coordinator world or the reverse), and (on
// coordinator-rendezvous worlds) every pending and future Recv after the
// heartbeat session learns the token is stale. Either way the rank must
// exit, not retry: the world it belonged to no longer exists, and the
// fencing is precisely what keeps it from corrupting the one that replaced
// it. Use errors.As to detect it.
type ErrFenced struct {
	Rank  int    // the fenced (stale) rank — this endpoint
	Fence uint64 // the rejected generation token it presented
	Cause error  // coordinator-side detail when fenced via heartbeat; may be nil
}

func (e *ErrFenced) Error() string {
	msg := fmt.Sprintf("mpi: rank %d fenced: generation %d superseded", e.Rank, e.Fence)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

func (e *ErrFenced) Unwrap() error { return e.Cause }

// errTimeout builds the error of a receive that exceeded its deadline. It
// wraps os.ErrDeadlineExceeded so callers can test with errors.Is.
func errTimeout(op string, from, tag int, d time.Duration) error {
	return fmt.Errorf("mpi: %s(from=%d, tag=%d): no matching message within %v: %w",
		op, from, tag, d, os.ErrDeadlineExceeded)
}

// Message is a received point-to-point message.
type Message struct {
	From int    // sending rank
	Tag  int    // application tag
	Data []byte // payload; owned by the receiver until it releases it
}

// Transport is the byte-level rank-to-rank messaging substrate. Send must be
// asynchronous (never block waiting for the receiver) so that collectives
// built from symmetric send/recv exchanges cannot deadlock. Recv blocks
// until a matching message arrives.
type Transport interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the world.
	Size() int
	// SendSegments enqueues the concatenation of segs for delivery to rank
	// `to` with the given tag, as one message. The transport copies the
	// segments before it returns — in process into a buffer the receiving
	// rank released, over TCP into a frame from the sending rank's own
	// pool, when one fits — so the caller may reuse them at once, and no
	// receiver ever holds bytes a sender can still write.
	SendSegments(to, tag int, segs [][]byte) error
	// Recv blocks until a message matching (from, tag) is available and
	// returns it. from may be AnySource and tag may be AnyTag. Messages
	// from the same sender with the same tag are delivered in send order.
	Recv(from, tag int) (Message, error)
	// RecvTimeout is Recv with a per-call deadline: when no matching
	// message arrives within timeout it returns an error wrapping
	// os.ErrDeadlineExceeded. timeout <= 0 means no deadline (plain Recv).
	RecvTimeout(from, tag int, timeout time.Duration) (Message, error)
	// Release hands back the storage of a received Message.Data the caller
	// has finished with: a later message to this rank may be delivered in
	// it. The caller must not read or write data, or any slice of it, after
	// the call. Releasing is optional; a buffer never released is garbage
	// collected as usual.
	Release(data []byte)
	// Close shuts the endpoint down. Blocked and future calls fail with
	// ErrClosed.
	Close() error
}

func checkPeer(rank, size int, op string) error {
	if rank < 0 || rank >= size {
		return fmt.Errorf("mpi: %s: rank %d out of range [0,%d)", op, rank, size)
	}
	return nil
}
