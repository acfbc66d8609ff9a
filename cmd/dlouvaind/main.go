// Command dlouvaind is the community-detection daemon: it serves the
// internal/service HTTP API — job submission, status, results, abort and
// SSE progress streams — over a persistent data directory, admitting
// supervised Louvain worlds against a shared rank budget.
//
// Endpoints (see internal/service/api.go):
//
//	POST   /v1/jobs             submit
//	GET    /v1/jobs             list
//	GET    /v1/jobs/{id}        status
//	GET    /v1/jobs/{id}/result result
//	DELETE /v1/jobs/{id}        abort
//	GET    /v1/jobs/{id}/events SSE progress
//	GET    /v1/stats            counters
//
// SIGINT/SIGTERM drain gracefully: running worlds checkpoint at their next
// phase boundary and re-queue, so the next daemon start resumes them.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"distlouvain/internal/obsv"
	"distlouvain/internal/service"
	"distlouvain/internal/supervisor"
)

func main() {
	os.Exit(run())
}

// The HTTP server's timeouts. A client gets readHeaderTimeout to send its
// request headers and a keep-alive connection is closed after idleTimeout
// without a request, so a slow or silent peer cannot hold a connection open
// forever. There is no write timeout: GET /v1/jobs/{id}/events is an SSE
// stream that lasts as long as its job.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer is the daemon's HTTP server around h.
func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func run() int {
	fs := flag.NewFlagSet("dlouvaind", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:7310", "HTTP listen address")
		dataDir     = fs.String("data-dir", "", "persistent job/data directory (required)")
		rankBudget  = fs.Int("rank-budget", 0, "total concurrent ranks across all jobs (0 = GOMAXPROCS)")
		maxQueue    = fs.Int("max-queue", 256, "maximum queued jobs before submissions are rejected")
		cacheCap    = fs.Int("cache-cap", 128, "result cache capacity (entries)")
		keepJobs    = fs.Int("keep-jobs", 64, "terminal job directories retained before GC")
		maxRestarts = fs.Int("max-restarts", 5, "per-job supervision restart budget (>= 1)")
		backoff     = fs.Duration("backoff", 200*time.Millisecond, "base restart backoff")
		hang        = fs.Duration("hang", 5*time.Second, "beacon silence of a job's whole world allowed before it may count as hung (the learned window is capped at 24x)")
		drainWait   = fs.Duration("drain-wait", time.Minute, "graceful shutdown budget before forcing exit")
		quiet       = fs.Bool("q", false, "suppress progress logging")
	)
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "dlouvaind: -data-dir is required")
		fs.Usage()
		return 2
	}
	if *rankBudget < 0 || *maxQueue < 1 || *cacheCap < 1 || *keepJobs < 1 {
		fmt.Fprintln(os.Stderr, "dlouvaind: -rank-budget must be >= 0; -max-queue, -cache-cap and -keep-jobs must be >= 1")
		fs.Usage()
		return 2
	}
	if *maxRestarts < 1 {
		// supervisor.Policy treats a zero budget as "use the default of 5", so
		// "never restart" cannot be spelled here; say so instead of restarting.
		fmt.Fprintf(os.Stderr, "dlouvaind: -max-restarts must be >= 1 (got %d): every job runs supervised, so there is no never-restart mode\n", *maxRestarts)
		fs.Usage()
		return 2
	}

	logf := log.New(os.Stderr, "dlouvaind: ", log.LstdFlags).Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	reg := obsv.NewRegistry(0)
	expvar.Publish("dlouvaind", expvar.Func(func() any { return reg.ExpvarSnapshot() }))

	svc, err := service.New(service.Options{
		DataDir:    *dataDir,
		RankBudget: *rankBudget,
		MaxQueue:   *maxQueue,
		CacheCap:   *cacheCap,
		KeepJobs:   *keepJobs,
		Policy:     supervisor.Policy{MaxRestarts: *maxRestarts, BaseBackoff: *backoff},
		Hang:       *hang,
		Logf:       logf,
		Registry:   reg,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlouvaind: %v\n", err)
		return 1
	}

	// The service API and the stdlib debug handlers (/debug/pprof,
	// /debug/vars via expvar) share one listener.
	mux := http.NewServeMux()
	mux.Handle("/v1/", svc.Handler())
	mux.Handle("/debug/", http.DefaultServeMux)
	srv := newServer(mux)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlouvaind: listen: %v\n", err)
		return 1
	}
	logf("serving on http://%s (data dir %s)", ln.Addr(), *dataDir)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		logf("caught %v; draining (running jobs checkpoint and re-queue)", got)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "dlouvaind: serve: %v\n", err)
		return 1
	}

	// Stop accepting connections, then drain the service: Close interrupts
	// every running world, which checkpoints at its next phase boundary.
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("http shutdown: %v", err)
	}
	done := make(chan struct{})
	go func() { svc.Close(); close(done) }()
	select {
	case <-done:
		logf("drained cleanly")
		return 0
	case <-time.After(*drainWait):
		fmt.Fprintln(os.Stderr, "dlouvaind: drain budget exceeded; exiting with jobs unfinished")
		return 1
	}
}
