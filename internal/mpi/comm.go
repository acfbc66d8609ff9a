package mpi

import (
	"fmt"
	"time"

	"distlouvain/internal/obsv"
)

// Comm is a communicator: a transport endpoint plus collective operations
// and traffic accounting. It corresponds to MPI_COMM_WORLD in the paper's
// code. A Comm is used by a single rank; the point-to-point operations may
// be called concurrently (e.g. from a communication thread), but the
// collectives follow the MPI rule that all ranks invoke them in the same
// order.
type Comm struct {
	t     Transport
	rank  int
	size  int
	stats Stats

	// timeout bounds each blocking receive, of user Recv calls and of
	// collective internals alike. Zero (the default) means wait forever,
	// matching MPI semantics; setting it makes a world whose transport
	// cannot detect peer death (e.g. the in-process one, or a network
	// partition that keeps connections open) fail fast instead of hanging.
	timeout time.Duration

	// collSeq numbers collective operations. Because every rank executes
	// the same collective sequence (SPMD), equal sequence numbers identify
	// the same logical operation, which keeps back-to-back collectives of
	// the same kind from stealing each other's messages.
	collSeq uint64

	// tracer receives one span per collective operation. nil (the default)
	// disables tracing at zero cost; obsv methods no-op on a nil receiver.
	tracer *obsv.Tracer
}

// CommOption configures a communicator at construction.
type CommOption func(*Comm)

// WithTimeout bounds every receive: an application Recv, and each internal
// receive of the collective operations (Barrier, Bcast, Allreduce, …). If no
// matching message arrives within d, the operation fails with an error
// wrapping os.ErrDeadlineExceeded, so a peer that never sends its round
// message fails the world instead of deadlocking it. d <= 0 disables the
// bound (the default).
func WithTimeout(d time.Duration) CommOption {
	return func(c *Comm) { c.timeout = d }
}

// SetTracer attaches a span tracer after construction — needed when the
// same options build every rank's communicator (mpi.Run) but tracers are
// per rank. Call before the communicator is used, not concurrently with
// operations.
func (c *Comm) SetTracer(t *obsv.Tracer) { c.tracer = t }

// Tracer returns the attached tracer (nil when tracing is off).
func (c *Comm) Tracer() *obsv.Tracer { return c.tracer }

// NewComm wraps a transport endpoint.
func NewComm(t Transport, opts ...CommOption) *Comm {
	c := &Comm{t: t, rank: t.Rank(), size: t.Size()}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.size }

// Stats exposes the traffic counters.
func (c *Comm) Stats() *Stats { return &c.stats }

// Close shuts down the underlying transport.
func (c *Comm) Close() error { return c.t.Close() }

// Send transmits data to rank `to` with an application tag in
// [0, MaxUserTag].
func (c *Comm) Send(to, tag int, data []byte) error {
	if tag < 0 || tag > MaxUserTag {
		return fmt.Errorf("mpi: user tag %d out of range [0,%d]", tag, MaxUserTag)
	}
	c.stats.SentMsgs.Add(1)
	c.stats.SentBytes.Add(int64(len(data)))
	return c.t.Send(to, tag, data)
}

// Recv blocks for a message matching (from, tag); from may be AnySource,
// tag may be AnyTag (application tags only). With WithTimeout set, the
// wait is bounded.
func (c *Comm) Recv(from, tag int) (Message, error) {
	msg, err := c.t.RecvTimeout(from, tag, c.timeout)
	if err != nil {
		return msg, err
	}
	c.stats.RecvMsgs.Add(1)
	c.stats.RecvBytes.Add(int64(len(msg.Data)))
	return msg, nil
}

// Release hands the storage of received payloads back to the transport
// (Transport.Release): a later message to this rank may be delivered in it.
// Every collective result and Recv payload belongs to the caller, so any may
// be released once decoded; none may be touched after.
func (c *Comm) Release(bufs ...[]byte) {
	for _, b := range bufs {
		c.t.Release(b)
	}
}

// acquire returns a buffer of n bytes from t's pool of released buffers, or a
// new one when t keeps none.
func acquire(t Transport, n int) []byte {
	if p, ok := t.(interface{ acquire(int) []byte }); ok {
		return p.acquire(n)
	}
	return make([]byte, n)
}

// collTag derives the reserved tag for the current collective operation.
// The sequence wraps far before colliding with in-flight operations.
func (c *Comm) collTag() int {
	c.collSeq++
	c.stats.CollectiveOps.Add(1)
	return MaxUserTag + 1 + int(c.collSeq%(1<<20))
}

// collSend is Send without user-tag validation, for collective internals.
func (c *Comm) collSend(to, tag int, data []byte) error {
	c.stats.CollMsgs.Add(1)
	c.stats.CollBytes.Add(int64(len(data)))
	return c.t.Send(to, tag, data)
}

func (c *Comm) collRecv(from, tag int) (Message, error) {
	return c.t.RecvTimeout(from, tag, c.timeout)
}
