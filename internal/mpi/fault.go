package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrKilled is returned by operations on a FaultTransport whose simulated
// process death has been triggered (Kill or KillAfterSends).
var ErrKilled = errors.New("mpi: fault injection: endpoint killed")

// FaultPlan describes the deterministic fault schedule of one
// FaultTransport. All probabilities are evaluated against a splitmix64
// stream seeded with Seed, so runs with equal plans and message sequences
// inject identical faults. The zero plan injects nothing.
type FaultPlan struct {
	// Seed initialises the fault RNG; ranks typically mix their rank in so
	// schedules differ across the world but stay reproducible.
	Seed uint64

	// Drop is the probability an outgoing message is silently discarded —
	// the receiver simply never sees it, as with a lost datagram or a peer
	// whose NIC died mid-stream.
	Drop float64

	// Duplicate is the probability an outgoing message is delivered twice,
	// modelling retransmission bugs.
	Duplicate float64

	// Delay is the probability an outgoing message is held back for a
	// random duration in (0, MaxDelay] before delivery. Delayed delivery
	// happens on a timer goroutine, so same-(source, tag) ordering is NOT
	// preserved for delayed messages — exactly the reordering a real
	// network exhibits. MaxDelay defaults to 10ms when Delay > 0.
	Delay    float64
	MaxDelay time.Duration

	// Partition lists peer ranks to which traffic is blackholed in both
	// directions: sends are discarded and received messages from them are
	// dropped before matching. Connections stay "up", so only deadlines can
	// detect this — the classic asymmetric-partition hang.
	Partition []int

	// KillAfterSends, when > 0, kills the endpoint after that many Send
	// calls have been accepted: the underlying transport is closed abruptly
	// and every later operation fails with ErrKilled. This is the
	// "process dies mid-collective" schedule used by the chaos tests.
	KillAfterSends int64
}

// FaultTransport wraps a Transport with deterministic fault injection for
// chaos testing: message drop, duplication, delay, peer partitions, and
// scheduled or explicit process death. It implements Transport, so a Comm
// built on it exercises the full collective stack under faults.
type FaultTransport struct {
	inner Transport
	plan  FaultPlan

	mu          sync.Mutex
	rng         uint64
	partitioned map[int]bool

	sends  atomic.Int64
	killed atomic.Bool
}

// NewFaultTransport wraps t with the given fault plan.
func NewFaultTransport(t Transport, plan FaultPlan) *FaultTransport {
	f := &FaultTransport{
		inner:       t,
		plan:        plan,
		rng:         plan.Seed ^ 0x9e3779b97f4a7c15,
		partitioned: make(map[int]bool, len(plan.Partition)),
	}
	if f.plan.Delay > 0 && f.plan.MaxDelay <= 0 {
		f.plan.MaxDelay = 10 * time.Millisecond
	}
	for _, p := range plan.Partition {
		f.partitioned[p] = true
	}
	return f
}

// next draws one uniform value in [0, 1) from the seeded splitmix64 stream.
func (f *FaultTransport) next() float64 {
	f.mu.Lock()
	f.rng += 0x9e3779b97f4a7c15
	z := f.rng
	f.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Kill simulates abrupt process death: the underlying transport is torn
// down without any shutdown handshake (for TCP, peers observe an
// unexplained stream end and fail with ErrPeerLost) and all subsequent
// operations on this endpoint fail with ErrKilled.
func (f *FaultTransport) Kill() {
	if f.killed.CompareAndSwap(false, true) {
		if a, ok := f.inner.(interface{ Abort() }); ok {
			a.Abort()
		} else {
			f.inner.Close()
		}
	}
}

// Sends returns how many Send calls this endpoint has accepted. Chaos tests
// use it to calibrate KillAfterSends schedules against a healthy run.
func (f *FaultTransport) Sends() int64 { return f.sends.Load() }

func (f *FaultTransport) Rank() int { return f.inner.Rank() }
func (f *FaultTransport) Size() int { return f.inner.Size() }

func (f *FaultTransport) Send(to, tag int, data []byte) error {
	if f.killed.Load() {
		return ErrKilled
	}
	if n := f.sends.Add(1); f.plan.KillAfterSends > 0 && n >= f.plan.KillAfterSends {
		f.Kill()
		return ErrKilled
	}
	if f.partitioned[to] {
		return nil // blackholed: reported as sent, never delivered
	}
	if f.plan.Drop > 0 && f.next() < f.plan.Drop {
		return nil
	}
	if f.plan.Delay > 0 && f.next() < f.plan.Delay {
		d := time.Duration(f.next() * float64(f.plan.MaxDelay))
		cp := make([]byte, len(data))
		copy(cp, data)
		time.AfterFunc(d, func() {
			if !f.killed.Load() {
				f.inner.Send(to, tag, cp)
			}
		})
		return nil
	}
	if err := f.inner.Send(to, tag, data); err != nil {
		return err
	}
	if f.plan.Duplicate > 0 && f.next() < f.plan.Duplicate {
		return f.inner.Send(to, tag, data)
	}
	return nil
}

func (f *FaultTransport) Recv(from, tag int) (Message, error) {
	return f.RecvTimeout(from, tag, 0)
}

func (f *FaultTransport) RecvTimeout(from, tag int, timeout time.Duration) (Message, error) {
	for {
		if f.killed.Load() {
			return Message{}, ErrKilled
		}
		msg, err := f.inner.RecvTimeout(from, tag, timeout)
		if err != nil {
			if f.killed.Load() {
				return Message{}, fmt.Errorf("%w (%v)", ErrKilled, err)
			}
			return msg, err
		}
		// Inbound half of the partition: discard and wait for the next
		// match, keeping the remaining timeout budget unmodelled — the
		// simpler behaviour is fine for a fault injector.
		if f.partitioned[msg.From] {
			continue
		}
		return msg, nil
	}
}

func (f *FaultTransport) Close() error {
	if f.killed.Load() {
		return nil
	}
	return f.inner.Close()
}
