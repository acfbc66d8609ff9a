package mpi

import (
	"fmt"
	"time"
)

// InprocWorld is a set of in-process transport endpoints, one per rank.
// Ranks are expected to run on separate goroutines; the endpoints are safe
// for that use.
type InprocWorld struct {
	size   int
	queues []*matchQueue
	eps    []*inprocEndpoint
}

// NewInprocWorld creates a world with size ranks.
func NewInprocWorld(size int) (*InprocWorld, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size %d must be positive", size)
	}
	w := &InprocWorld{size: size}
	w.queues = make([]*matchQueue, size)
	w.eps = make([]*inprocEndpoint, size)
	for i := 0; i < size; i++ {
		w.queues[i] = newMatchQueue()
	}
	for i := 0; i < size; i++ {
		w.eps[i] = &inprocEndpoint{world: w, rank: i}
	}
	return w, nil
}

// Endpoint returns the transport for the given rank.
func (w *InprocWorld) Endpoint(rank int) Transport { return w.eps[rank] }

// Close shuts down every endpoint.
func (w *InprocWorld) Close() {
	for _, q := range w.queues {
		q.close()
	}
}

type inprocEndpoint struct {
	world *InprocWorld
	rank  int
}

func (e *inprocEndpoint) Rank() int { return e.rank }
func (e *inprocEndpoint) Size() int { return e.world.size }

func (e *inprocEndpoint) SendSegments(to, tag int, segs [][]byte) error {
	if err := checkPeer(to, e.world.size, "Send"); err != nil {
		return err
	}
	// Deep copy: the receiving rank must never alias the sender's memory.
	// This is what makes the in-process world an honest stand-in for a
	// distributed-memory machine. The copy goes into a buffer the receiver
	// released, which nothing else holds.
	q := e.world.queues[to]
	var cp []byte
	if n := segmentsLen(segs); n > 0 {
		cp = concat(q.acquire(n), segs)
	}
	return q.push(Message{From: e.rank, Tag: tag, Data: cp})
}

func (e *inprocEndpoint) Release(data []byte) { e.world.queues[e.rank].release(data) }

func (e *inprocEndpoint) acquire(n int) []byte { return e.world.queues[e.rank].acquire(n) }

func (e *inprocEndpoint) Recv(from, tag int) (Message, error) {
	return e.RecvTimeout(from, tag, 0)
}

func (e *inprocEndpoint) RecvTimeout(from, tag int, timeout time.Duration) (Message, error) {
	if from != AnySource {
		if err := checkPeer(from, e.world.size, "Recv"); err != nil {
			return Message{}, err
		}
	}
	return e.world.queues[e.rank].pop(from, tag, timeout)
}

func (e *inprocEndpoint) Close() error {
	e.world.queues[e.rank].close()
	return nil
}
