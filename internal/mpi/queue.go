package mpi

import (
	"sync"
	"time"
)

// matchQueue is an unbounded mailbox with MPI-style (source, tag) matching.
// Both the in-process and TCP transports deliver into one matchQueue per
// receiving rank.
//
// A queue can be shut down two ways: close() is the orderly path (pop fails
// with ErrClosed once drained of matches), and fail() records a terminal
// error — typically an *ErrPeerLost — that every pending and future pop
// without a matching message returns. Messages that arrived before the
// failure are still delivered: TCP ordering guarantees everything a peer
// sent before dying was pushed before the failure was observed, so completed
// communication is never retroactively invalidated.
// A third, softer state tracks graceful departures: a peer that announced
// shutdown (goodbye frame) has, by TCP ordering, already delivered all of
// its messages, so only receives that target that peer specifically — which
// can never be satisfied again — fail; receives from other sources proceed.
//
// The queue also keeps the receiving rank's pool of free buffers (acquire,
// release): payloads the rank released after decoding them, which the next
// message to it is copied or read into instead of a new allocation.
type matchQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	msgs   []Message     // pending messages in arrival order
	err    error         // terminal failure; nil while healthy
	gone   map[int]error // peers that departed gracefully
	closed bool
	free   [][]byte // released buffers, full capacity; at most poolBuffers
}

// The receive pool's bounds. A payload shorter than poolMinBytes bypasses the
// pool both ways: allocating it costs less than a search, and a small message
// the receiver never releases (an allreduce's, a barrier's) must not carry
// off a large pooled buffer. At most poolBuffers buffers wait in one rank's
// pool; a release beyond that replaces the smallest one if it is larger.
const (
	poolMinBytes = 1 << 10
	poolBuffers  = 32
)

func newMatchQueue() *matchQueue {
	q := &matchQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push delivers a message. The queue takes ownership of msg.Data.
func (q *matchQueue) push(msg Message) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.err != nil {
		return q.err
	}
	q.msgs = append(q.msgs, msg)
	q.cond.Broadcast()
	return nil
}

// pop blocks until a message matching (from, tag) is pending, removes the
// earliest such message, and returns it. Matching respects MPI ordering:
// messages from one sender with one tag are matched in arrival order.
//
// timeout > 0 bounds the wait; expiry returns an error wrapping
// os.ErrDeadlineExceeded. A recorded failure takes effect as soon as no
// matching message is pending.
func (q *matchQueue) pop(from, tag int, timeout time.Duration) (Message, error) {
	var deadline time.Time
	var timer *time.Timer
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		// The timer only wakes the waiters; the loop below re-checks the
		// clock itself, so a spurious broadcast is harmless.
		timer = time.AfterFunc(timeout, func() {
			q.mu.Lock()
			q.cond.Broadcast()
			q.mu.Unlock()
		})
		defer timer.Stop()
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for i, m := range q.msgs {
			if (from == AnySource || m.From == from) && (tag == AnyTag || m.Tag == tag) {
				q.msgs = append(q.msgs[:i], q.msgs[i+1:]...)
				return m, nil
			}
		}
		if q.err != nil {
			return Message{}, q.err
		}
		if from != AnySource {
			if derr, gone := q.gone[from]; gone {
				return Message{}, derr
			}
		}
		if q.closed {
			return Message{}, ErrClosed
		}
		if timeout > 0 && !time.Now().Before(deadline) {
			return Message{}, errTimeout("Recv", from, tag, timeout)
		}
		q.cond.Wait()
	}
}

// fail records a terminal error and wakes all waiters. The first failure
// wins; later calls (and calls after close) are no-ops, so shutdown races
// between multiple read loops are benign.
func (q *matchQueue) fail(err error) {
	if err == nil {
		return
	}
	q.mu.Lock()
	if q.err == nil && !q.closed {
		q.err = err
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// depart records a peer's graceful shutdown and wakes waiters so blocked
// pops targeting that peer can fail. Unlike fail, it does not poison the
// queue: messages from other peers keep flowing.
func (q *matchQueue) depart(peer int, err error) {
	q.mu.Lock()
	if q.gone == nil {
		q.gone = make(map[int]error)
	}
	if _, dup := q.gone[peer]; !dup {
		q.gone[peer] = err
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// close wakes all waiters with ErrClosed and rejects future pushes.
func (q *matchQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// acquire returns a buffer of n bytes whose contents are undefined: the
// smallest pooled buffer that holds n, or a new one. The caller owns it.
func (q *matchQueue) acquire(n int) []byte {
	if n < poolMinBytes {
		return make([]byte, n)
	}
	q.mu.Lock()
	best := -1
	for i, b := range q.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(q.free[best])) {
			best = i
		}
	}
	if best < 0 {
		q.mu.Unlock()
		return make([]byte, n)
	}
	b := q.free[best]
	last := len(q.free) - 1
	q.free[best], q.free[last] = q.free[last], nil
	q.free = q.free[:last]
	q.mu.Unlock()
	return b[:n]
}

// release returns b's storage to the pool; the caller must not touch it
// again. A buffer already in the pool is not added twice, so a double release
// is harmless as long as no acquire came between the two.
func (q *matchQueue) release(b []byte) {
	b = b[:cap(b)]
	if poisonReleased {
		for i := range b {
			b[i] = 0xa5
		}
	}
	if len(b) < poolMinBytes {
		return
	}
	end := &b[len(b)-1] // identifies the storage whatever slice of it b is
	q.mu.Lock()
	defer q.mu.Unlock()
	smallest := -1
	for i, f := range q.free {
		if &f[len(f)-1] == end {
			return
		}
		if smallest < 0 || cap(f) < cap(q.free[smallest]) {
			smallest = i
		}
	}
	switch {
	case len(q.free) < poolBuffers:
		q.free = append(q.free, b)
	case cap(b) > cap(q.free[smallest]):
		q.free[smallest] = b
	}
}

// pending returns the number of undelivered messages (for tests/stats).
func (q *matchQueue) pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.msgs)
}
