package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"distlouvain/internal/mpi"
)

// world is a connected set of communicators, one per rank, over either
// transport. The harness opens it before the clock starts and runs each rank
// on its own goroutine, so inproc and TCP runs differ in the transport only.
type world struct {
	comms []*mpi.Comm
	close func()
}

// openWorld connects ranks communicators in process, or over loopback TCP
// (one listener and one full-mesh dial per rank, as separate processes would).
func openWorld(ranks int, tcp bool) (*world, error) {
	if !tcp {
		iw, err := mpi.NewInprocWorld(ranks)
		if err != nil {
			return nil, err
		}
		w := &world{comms: make([]*mpi.Comm, ranks), close: iw.Close}
		for r := range w.comms {
			w.comms[r] = mpi.NewComm(iw.Endpoint(r))
		}
		return w, nil
	}

	addrs, err := loopbackAddrs(ranks)
	if err != nil {
		return nil, err
	}
	tps := make([]mpi.Transport, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tps[r], errs[r] = mpi.DialTCPWorld(mpi.TCPWorldConfig{Rank: r, Addrs: addrs, ConnectDeadline: 10 * time.Second})
		}(r)
	}
	wg.Wait()
	closeAll := func() {
		var cwg sync.WaitGroup
		for _, tp := range tps {
			if tp != nil {
				cwg.Add(1)
				go func(tp mpi.Transport) {
					defer cwg.Done()
					tp.Close()
				}(tp)
			}
		}
		cwg.Wait()
	}
	for r, err := range errs {
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("tcp world: rank %d: %w", r, err)
		}
	}
	w := &world{comms: make([]*mpi.Comm, ranks), close: closeAll}
	for r := range w.comms {
		w.comms[r] = mpi.NewComm(tps[r])
	}
	return w, nil
}

// loopbackAddrs reserves n free loopback ports by binding and releasing them.
func loopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// spmd runs body once per rank, each on its own goroutine, and returns the
// time from releasing the ranks to the last one finishing. A failing or
// panicking rank closes the world so its peers unblock instead of hanging.
func (w *world) spmd(body func(c *mpi.Comm) error) (time.Duration, error) {
	errs := make([]error, len(w.comms))
	var wg sync.WaitGroup
	start := time.Now()
	for r, c := range w.comms {
		wg.Add(1)
		go func(r int, c *mpi.Comm) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("panic: %v", p)
					w.close()
				}
			}()
			if err := body(c); err != nil {
				errs[r] = err
				w.close()
			}
		}(r, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for r, err := range errs {
		if err != nil {
			return elapsed, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return elapsed, nil
}
