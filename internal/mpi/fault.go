package mpi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrKilled is returned by operations on a FaultTransport whose simulated
// process death has been triggered (Kill or KillAfterSends).
var ErrKilled = errors.New("mpi: fault injection: endpoint killed")

// FaultPlan describes the fault schedule of one FaultTransport. The zero
// plan injects nothing until Kill is called.
type FaultPlan struct {
	// KillAfterSends, when > 0, kills the endpoint after that many sends
	// have been accepted: the underlying transport is closed abruptly
	// and every later operation fails with ErrKilled. This is the
	// "process dies mid-collective" schedule used by the chaos tests.
	KillAfterSends int64
}

// FaultTransport wraps a Transport with scheduled or explicit process death
// for chaos testing. It implements Transport, so a Comm built on it
// exercises the full collective stack under faults.
type FaultTransport struct {
	inner Transport
	plan  FaultPlan

	sends  atomic.Int64
	killed atomic.Bool
}

// NewFaultTransport wraps t with the given fault plan.
func NewFaultTransport(t Transport, plan FaultPlan) *FaultTransport {
	return &FaultTransport{inner: t, plan: plan}
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

// Sends returns how many sends this endpoint has accepted. Chaos tests
// use it to calibrate KillAfterSends schedules against a healthy run.
func (f *FaultTransport) Sends() int64 { return f.sends.Load() }

func (f *FaultTransport) Rank() int { return f.inner.Rank() }
func (f *FaultTransport) Size() int { return f.inner.Size() }

// SendSegments accepts one more send, or fails it: the endpoint is dead, or
// this is the send its plan kills it at.
func (f *FaultTransport) SendSegments(to, tag int, segs [][]byte) error {
	if f.killed.Load() {
		return ErrKilled
	}
	if n := f.sends.Add(1); f.plan.KillAfterSends > 0 && n >= f.plan.KillAfterSends {
		f.Kill()
		return ErrKilled
	}
	return f.inner.SendSegments(to, tag, segs)
}

func (f *FaultTransport) RecvTimeout(from, tag int, timeout time.Duration) (Message, error) {
	if f.killed.Load() {
		return Message{}, ErrKilled
	}
	msg, err := f.inner.RecvTimeout(from, tag, timeout)
	if err != nil && f.killed.Load() {
		return Message{}, fmt.Errorf("%w (%v)", ErrKilled, err)
	}
	return msg, err
}

func (f *FaultTransport) Release(data []byte) { f.inner.Release(data) }

func (f *FaultTransport) acquire(n int) []byte { return acquire(f.inner, n) }

func (f *FaultTransport) Close() error {
	if f.killed.Load() {
		return nil
	}
	return f.inner.Close()
}
