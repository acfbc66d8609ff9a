package mpi

import (
	"fmt"
	"sync"
)

// Run executes body as an SPMD program on size in-process ranks, one
// goroutine per rank, each with its own communicator. It returns the first
// non-nil error from any rank (closing the world so the remaining ranks
// unblock) or nil when every rank succeeds.
//
// This is the single-binary analogue of "mpirun -np size": tests, examples
// and benchmarks drive the distributed algorithm through it. opts (e.g.
// WithTimeout) apply to every rank's communicator.
func Run(size int, body func(c *Comm) error, opts ...CommOption) error {
	world, err := NewInprocWorld(size)
	if err != nil {
		return err
	}
	defer world.Close()

	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("mpi: rank %d panicked: %v", r, p)
					world.Close() // unblock peers stuck in Recv
				}
			}()
			c := NewComm(world.Endpoint(r), opts...)
			if err := body(c); err != nil {
				errs[r] = err
				world.Close()
			}
		}(r)
	}
	wg.Wait()

	for r, e := range errs {
		if e != nil {
			return fmt.Errorf("rank %d: %w", r, e)
		}
	}
	return nil
}

// RunCollect is Run for programs that produce a per-rank result. results[r]
// holds rank r's value when the error is nil.
func RunCollect[T any](size int, body func(c *Comm) (T, error), opts ...CommOption) ([]T, error) {
	results := make([]T, size)
	err := Run(size, func(c *Comm) error {
		v, err := body(c)
		if err != nil {
			return err
		}
		results[c.Rank()] = v
		return nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	return results, nil
}
