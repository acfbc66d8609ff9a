// Command dlouvain runs the distributed Louvain community detection on a
// binary edge-list graph, either with in-process ranks (goroutines, the
// default — the single-binary analogue of mpirun) or as one OS process per
// rank communicating over TCP.
//
// In-process:
//
//	dlouvain -np 8 -variant etc -alpha 0.25 g.bin
//
// One local OS process per rank, spawned by the binary itself (it brings its
// own loopback coordinator and host agent, so this is the single-host case
// of the multi-host path below):
//
//	dlouvain -transport tcp-local -np 4 g.bin
//
// Multi-host: ranks rendezvous through a coordinator (cmd/dcoord). Each rank
// binds its own listener, registers under a job id, and receives the sealed
// membership plus a generation fencing token that keeps stale ranks from
// healed partitions out of live worlds. Launched by hand, one command per
// rank:
//
//	dcoord -listen 10.0.0.1:9470 &
//	dlouvain -transport tcp -coord 10.0.0.1:9470 -coord-job j1 -np 2 -rank 0 g.bin &
//	dlouvain -transport tcp -coord 10.0.0.1:9470 -coord-job j1 -np 2 -rank 1 g.bin
//
// Or run a host agent per machine and let a supervising driver place the
// ranks, watch their beacons (forwarded by the coordinator), and re-place the
// ranks of hosts the coordinator condemns:
//
//	dlouvain -host-agent -coord 10.0.0.1:9470 -coord-job j1 -slots 4 \
//	    -agent-advertise 10.0.0.2 &            # on every worker machine
//	dlouvain -transport tcp-remote -coord 10.0.0.1:9470 -coord-job j1 \
//	    -np 8 -ckpt-dir /shared/ck g.bin       # the driver, anywhere
//
// Every world is started the same way: a supervisor.Launcher (goroutines, or
// processes spawned through the coordinator and a host agent) driven by one
// function — a single attempt, or under -supervise the restart loop.
//
// Variants: baseline, tc (threshold cycling), et, etc, ettc (ET+TC); et,
// etc and ettc take -alpha in (0, 1]. Use -truth to score against a
// ground-truth community file and -o to write the detected assignment.
//
// Checkpoint/restart: -ckpt-dir enables phase-boundary snapshots, -resume
// continues from the latest committed checkpoint (the rank count may
// differ), and a run that ends in a retryable failure (lost peer, expired
// deadline) exits with code 3:
//
//	until dlouvain -np 8 -ckpt-dir ck -resume g.bin; do
//	    [ $? -eq 3 ] || break
//	done
//
// Or let the built-in supervisor own that loop: -supervise watches rank
// progress beacons, kills hung worlds, and relaunches crashed or killed
// worlds from the latest committed checkpoint with exponential backoff —
// degrading to fewer ranks when a size repeatedly fails:
//
//	dlouvain -transport tcp-local -np 8 -supervise -ckpt-dir ck \
//	    -max-restarts 5 -min-ranks 2 g.bin
//
// SIGTERM/SIGINT checkpoints at the next phase boundary and exits with the
// retryable code 3; a second signal aborts immediately.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"time"

	"distlouvain/internal/coord"
	"distlouvain/internal/core"
	"distlouvain/internal/dgraph"
	"distlouvain/internal/gio"
	"distlouvain/internal/mpi"
	"distlouvain/internal/obsv"
	"distlouvain/internal/partition"
	"distlouvain/internal/quality"
	"distlouvain/internal/supervisor"
)

func main() {
	var (
		np        = flag.Int("np", 4, "rank count of the world")
		transport = flag.String("transport", "inproc", "inproc, tcp (one rank of a -coord world), tcp-local (self-spawning local processes) or tcp-remote")
		rank      = flag.Int("rank", 0, "tcp: this process's rank")
		variant   = flag.String("variant", "baseline", "baseline, tc, et, etc, ettc")

		// Multi-host rendezvous and placement: ranks discover each other
		// through the -coord coordinator under a job id and a fencing
		// generation, -host-agent turns this process into a machine agent
		// executing placed ranks, and -transport tcp-remote runs the
		// supervising driver that places ranks across registered hosts.
		coordAddr      = flag.String("coord", "", "coordinator address (host:port); required for tcp and tcp-remote")
		coordJob       = flag.String("coord-job", "dlouvain", "coordinator job id; every rank and agent of one world shares it")
		coordEpoch     = flag.Int("coord-epoch", 1, "world incarnation under -coord; each relaunch must use a higher epoch")
		listenAddr     = flag.String("listen", "", "coord rendezvous: mesh listen address (default 127.0.0.1:0; multi-host ranks need a routable interface)")
		advertiseSpec  = flag.String("advertise", "", "coord rendezvous: address peers dial for this rank (host or host:port; default the bound listener)")
		hostAgent      = flag.Bool("host-agent", false, "run as a host agent: register -slots with -coord and execute ranks placed here (no graph argument)")
		agentHost      = flag.String("agent-host", "", "host-agent: unique host name within the job (default the OS hostname)")
		agentSlots     = flag.Int("slots", 1, "host-agent: how many ranks this host offers")
		agentAdvertise = flag.String("agent-advertise", "", "host-agent: address ranks spawned here advertise to peers (host or host:port)")
		remoteBin      = flag.String("remote-bin", "", "tcp-remote: dlouvain binary path on the agent hosts (default this executable's path)")

		alpha     = flag.Float64("alpha", 0.25, "early-termination decay (et, etc, ettc)")
		tau       = flag.Float64("tau", 0, "convergence threshold (default 1e-6)")
		threads   = flag.Int("threads", 1, "worker threads per rank")
		seed      = flag.Uint64("seed", 1, "early-termination seed")
		edgeBal   = flag.Bool("edgebalance", false, "edge-balanced input partition instead of even vertex split")
		outPath   = flag.String("o", "", "write detected communities (one label per line)")
		truthPath = flag.String("truth", "", "ground-truth file for quality scoring")
		verbose   = flag.Bool("v", false, "per-phase progress output")

		// Checkpoint/restart: with -ckpt-dir, every rank snapshots its
		// state at phase boundaries; -resume continues from the latest
		// committed checkpoint (possibly at a different -np). A run that
		// ends in a retryable failure exits with code 3, so a wrapper can
		// loop `dlouvain -resume` until success.
		ckptDir   = flag.String("ckpt-dir", "", "checkpoint directory (enables phase-boundary snapshots)")
		ckptEvery = flag.Int("ckpt-every", 1, "snapshot after every k-th completed phase")
		ckptKeep  = flag.Int("ckpt-keep", 2, "committed phase snapshots to retain per rank")
		resume    = flag.Bool("resume", false, "resume from the checkpoint in -ckpt-dir")

		// Self-healing supervision (every launched world): watch rank
		// progress beacons, kill hung worlds, relaunch retryable failures
		// from the latest checkpoint with backoff, degrade the rank count
		// when a size keeps failing.
		supervise   = flag.Bool("supervise", false, "supervise the run: auto-restart from checkpoints on failure")
		maxRestarts = flag.Int("max-restarts", 5, "supervise: relaunch budget before giving up")
		backoff     = flag.Duration("backoff", 500*time.Millisecond, "supervise: base restart delay (doubles per consecutive failure)")
		minRanks    = flag.Int("min-ranks", 1, "supervise: smallest world size degradation may reach")
		hang        = flag.Duration("hang", 5*time.Second, "supervise: beacon silence of the whole world allowed before it may count as hung (the learned window is capped at 24x; the detector polls every 1/20)")

		// Test-only failure injection, fired by the world's launcher when a
		// rank's beacons reach a phase.
		chaosFlag = flag.String("chaos", "", "test-only: comma-separated kill=R@P (crash rank R once it reaches phase P), stop=R@P (freeze it; needs supervision), every (re-arm on every attempt, not just the first)")

		// Rank-level observability: span tracing with NDJSON export, the
		// paper-§V-A per-phase timing breakdown, and a pprof/expvar debug
		// server. Tracing is off (and free) unless -trace-dir or -report
		// asks for it.
		traceDir  = flag.String("trace-dir", "", "write per-rank span traces (NDJSON) into this directory")
		reportOn  = flag.Bool("report", false, "print the per-phase timing breakdown (%p2p/%coll/%coarsen) after the run")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof and expvar metrics on this address")

		// Failure semantics: a deadline turns a dead or partitioned peer
		// into an error instead of a hang.
		timeout = flag.Duration("timeout", 0, "deadline of every receive, point-to-point and inside collectives; 0 waits forever")
	)
	flag.Parse()
	if err := validateFlags(flagValues{
		np: *np, threads: *threads, alpha: *alpha, tau: *tau,
		ckptEvery: *ckptEvery, ckptKeep: *ckptKeep,
		supervise: *supervise, minRanks: *minRanks, maxRestarts: *maxRestarts,
		transport: *transport, rank: *rank,
		coord: *coordAddr, coordEpoch: *coordEpoch,
		hostAgent: *hostAgent, agentSlots: *agentSlots,
		chaos: *chaosFlag,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "dlouvain: %v\n", err)
		fmt.Fprintln(os.Stderr, "usage: dlouvain [flags] <graph.bin>  (run with -h for the flag list)")
		os.Exit(2)
	}
	if *hostAgent {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: dlouvain -host-agent -coord host:port [flags]  (no graph argument: the driver supplies it)")
			os.Exit(2)
		}
		runHostAgent(*coordAddr, *coordJob, *agentHost, *agentSlots, *agentAdvertise)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dlouvain [flags] <graph.bin>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "dlouvain: -resume requires -ckpt-dir")
		os.Exit(2)
	}
	path := flag.Arg(0)

	cfg, err := buildConfig(*variant, *alpha)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlouvain: %v\n", err)
		fmt.Fprintln(os.Stderr, "usage: dlouvain [flags] <graph.bin>  (run with -h for the flag list)")
		os.Exit(2)
	}
	cfg.Tau = *tau
	cfg.Threads = *threads
	cfg.Seed = *seed
	cfg.GatherOutput = true
	cfg.CheckpointDir = *ckptDir
	cfg.CheckpointEvery = *ckptEvery
	cfg.CheckpointKeep = *ckptKeep

	hdr, err := gio.ReadHeader(path)
	if err != nil {
		fatalf("%v", err)
	}

	commOpts := []mpi.CommOption{mpi.WithTimeout(*timeout)}
	chaos, _ := parseChaos(*chaosFlag) // validateFlags accepted it

	sopts := supOptions{
		policy:  supervisor.Policy{MaxRestarts: *maxRestarts, BaseBackoff: *backoff, MinRanks: *minRanks, Seed: cfg.Seed},
		hang:    *hang,
		inject:  chaos.inject(),
		verbose: *verbose,
	}

	oopts := obsOptions{
		traceDir:  *traceDir,
		report:    *reportOn,
		pprofAddr: *pprofAddr,
	}

	supervised := *supervise || *transport == "tcp-remote"
	switch *transport {
	case "inproc":
		runInprocWorld(path, hdr, *np, cfg, *edgeBal, *resume, supervised, *outPath, *truthPath, commOpts, sopts, oopts)
	case "tcp":
		adv := meshAdvertise(*advertiseSpec)
		runTCP(path, hdr, mpi.CoordWorldConfig{
			Coord: *coordAddr, Job: *coordJob, Epoch: *coordEpoch,
			Rank: *rank, Size: *np,
			Listen: meshListen(*listenAddr, adv), Advertise: adv,
		}, cfg, *edgeBal, *resume, *outPath, *truthPath, *verbose, commOpts, oopts)
	case "tcp-local", "tcp-remote":
		runProcWorld(*np, path, cfg, *resume, supervised, *transport == "tcp-local", sopts, oopts, remoteOptions{
			coord: *coordAddr, job: *coordJob, bin: *remoteBin,
		})
	}
}

// buildConfig is the configuration -variant and -alpha select.
func buildConfig(variant string, alpha float64) (core.Config, error) {
	cfg, err := core.ParseVariant(variant, alpha)
	if err != nil {
		return core.Config{}, fmt.Errorf("-variant: %w", err)
	}
	return cfg, nil
}

func rankBody(path string, hdr gio.Header, cfg core.Config, edgeBal, resume, verbose bool) func(c *mpi.Comm) (*core.Result, error) {
	return func(c *mpi.Comm) (*core.Result, error) {
		var res *core.Result
		if resume {
			var err error
			res, err = core.Resume(c, cfg.CheckpointDir, cfg)
			if err != nil {
				return nil, err
			}
		} else {
			ioStart := time.Now()
			chunk, err := gio.ReadSegment(path, c.Rank(), c.Size())
			if err != nil {
				return nil, err
			}
			ioDur := time.Since(ioStart)
			var part *partition.Partition
			if edgeBal {
				part, err = dgraph.EdgeBalancedPartition(c, hdr.Vertices, chunk)
				if err != nil {
					return nil, err
				}
			}
			dg, err := dgraph.Build(c, hdr.Vertices, chunk, part)
			if err != nil {
				return nil, err
			}
			if c.Rank() == 0 && verbose {
				fmt.Fprintf(os.Stderr, "rank 0: read %d edges in %v\n", len(chunk), ioDur)
			}
			res, err = core.Run(dg, cfg)
			if err != nil {
				return nil, err
			}
		}
		if c.Rank() == 0 && verbose {
			kept := math.Inf(-1)
			for i, ph := range res.Phases {
				// core.Run discards a phase that ends below the one before.
				note := ""
				if ph.Modularity < kept {
					note = " (discarded: ended below the phase before)"
				} else {
					kept = ph.Modularity
				}
				fmt.Fprintf(os.Stderr, "phase %d: |V|=%d iters=%d Q=%.6f tau=%.0e exit=%s%s\n",
					i, ph.Vertices, ph.Iterations, ph.Modularity, ph.Tau, ph.Exit, note)
				// Returns keeping pace with moves is a phase flip-flopping
				// rather than converging; "damped from" is where the return
				// rule stepped in. A resumed run's earlier phases have no
				// return counts (the checkpoint does not carry them).
				if len(ph.ReturnsTrajectory) > 0 {
					damped := "never damped"
					if ph.DampedFrom > 0 {
						damped = fmt.Sprintf("damped from iteration %d", ph.DampedFrom)
					}
					fmt.Fprintf(os.Stderr, "  moves %v\n  returns %v, %s\n", ph.MovesTrajectory, ph.ReturnsTrajectory, damped)
				}
			}
		}
		return res, nil
	}
}

// envAdvertise is the advertise-address default a host agent installs for
// the ranks it spawns: the agent — not the driver — knows which interface
// peers can reach its machine on.
const envAdvertise = "DLOUVAIN_ADVERTISE"

// envLaunched is set, to any value, in the environment of every rank a
// process launcher spawns: a launcher watches this rank.
const envLaunched = "DLOUVAIN_LAUNCHED"

// meshAdvertise resolves the address this rank publishes to its peers: the
// -advertise flag, else the host agent's environment default, else empty
// (publish the bound listener verbatim).
func meshAdvertise(flagVal string) string {
	if flagVal != "" {
		return flagVal
	}
	return os.Getenv(envAdvertise)
}

// meshListen resolves the mesh listen address: the -listen flag wins; a rank
// with an advertised identity listens on every interface (peers dial the
// advertised one); otherwise the loopback default keeps single-machine worlds
// off external interfaces.
func meshListen(flagVal, advertise string) string {
	if flagVal != "" {
		return flagVal
	}
	if advertise != "" {
		return ":0"
	}
	return ""
}

// runTCP is one rank of a coordinator-rendezvous world in this process: what
// a hand-launched `-transport tcp` command runs, and what the process
// launcher spawns once per rank.
func runTCP(path string, hdr gio.Header, world mpi.CoordWorldConfig, cfg core.Config, edgeBal, resume bool, outPath, truthPath string, verbose bool, commOpts []mpi.CommOption, oopts obsOptions) {
	rank := world.Rank
	var interrupted atomic.Bool
	cfg.Interrupted = interrupted.Load
	trapInterrupt(func(os.Signal) {
		if rank == 0 {
			fmt.Fprintln(os.Stderr, "dlouvain: interrupt: checkpointing at the next phase boundary")
		}
		interrupted.Store(true)
	})
	tr := oopts.newTracer(rank)
	cfg.Tracer = tr
	reg := obsv.NewRegistry(rank)
	startPprof(oopts.pprofAddr, reg)

	// Under a launcher, a failed rendezvous is retryable: a sibling rank
	// dying during startup must not burn the supervisor's fatal path.
	_, launched := os.LookupEnv(envLaunched)
	tp, err := mpi.DialCoordWorld(world)
	if err != nil {
		// Fencing is terminal even under supervision: this epoch's world no
		// longer exists, so retrying the same incarnation can never succeed
		// — and must not, or a stale rank from a healed partition would claw
		// its way back into the world that replaced it.
		var cfe *coord.FencedError
		var mfe *mpi.ErrFenced
		if errors.As(err, &cfe) || errors.As(err, &mfe) {
			fatalf("rank %d: %v", rank, err)
		}
		if launched {
			fmt.Fprintf(os.Stderr, "dlouvain: rank %d: rendezvous: %v\n", rank, err)
			os.Exit(exitRetryable)
		}
		fatalf("%v", err)
	}
	defer tp.Close()
	if launched {
		// Progress beacons ride the world's coordinator session to the
		// launcher; the supervisor's bootstrap window covered the rendezvous.
		emit := func(b supervisor.Beacon) {
			if data, err := json.Marshal(b); err == nil {
				tp.Beacon(data)
			}
		}
		cfg.Progress = supervisor.CoreProgressTraced(rank, tr, emit)
		emit(supervisor.Beacon{Rank: rank, Kind: supervisor.KindHello})
	}
	c := mpi.NewComm(tp, commOpts...)
	c.SetTracer(tr)
	reg.AttachCounters("mpi", func() map[string]int64 {
		return c.Stats().Snapshot().Counters()
	})
	res, err := rankBody(path, hdr, cfg, edgeBal, resume, verbose)(c)
	oopts.flushTraces(tr)
	if err != nil {
		runFailf(err, "rank %d: %v", rank, err)
	}
	recordRunMetrics(reg, res)
	if rank == 0 {
		report(res, hdr, cfg, world.Size, outPath, truthPath)
		oopts.printReport(tr)
	}
}

func report(res *core.Result, hdr gio.Header, cfg core.Config, np int, outPath, truthPath string) {
	fmt.Printf("variant=%s ranks=%d threads=%d\n", cfg.VariantName(), np, cfg.Threads)
	fmt.Printf("graph: %d vertices, %d edges\n", hdr.Vertices, hdr.Edges)
	fmt.Printf("communities=%d modularity=%.6f phases=%d iterations=%d time=%.3fs\n",
		res.Communities, res.Modularity, len(res.Phases), res.TotalIterations, res.Runtime.Seconds())
	fmt.Printf("time split: ghost=%.3fs community=%.3fs compute=%.3fs allreduce=%.3fs rebuild=%.3fs\n",
		res.Steps.GhostComm.Seconds(), res.Steps.CommunityComm.Seconds(),
		res.Steps.Compute.Seconds(), res.Steps.Allreduce.Seconds(), res.Steps.Rebuild.Seconds())
	fmt.Printf("rank-0 traffic: %.2f MB p2p, %.2f MB collective\n",
		float64(res.Traffic.SentBytes)/1e6, float64(res.Traffic.CollBytes)/1e6)

	if outPath != "" {
		if err := gio.WriteGroundTruth(outPath, res.GlobalComm); err != nil {
			fatalf("write %s: %v", outPath, err)
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	if truthPath != "" {
		truth, err := gio.ReadGroundTruth(truthPath, hdr.Vertices)
		if err != nil {
			fatalf("read %s: %v", truthPath, err)
		}
		score, err := quality.Compare(res.GlobalComm, truth)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("quality vs ground truth: precision=%.4f recall=%.4f f-score=%.4f nmi=%.4f ari=%.4f\n",
			score.Precision, score.Recall, score.FScore, score.NMI, score.ARI)
	}
}

// Exit codes: 0 success, 1 fatal error, 2 usage, 3 retryable run failure
// (lost peer, expired collective deadline, injected kill) — a restart
// wrapper can loop `dlouvain -resume` while the code is 3.
const exitRetryable = 3

// exitCodeFor classifies a run error for the process exit status. The
// supervisor's give-up diagnoses (restart budget exhausted, rank floor hit)
// are fatal even though the failures they wrap were retryable: the whole
// point of the supervisor is that when IT gives up, an operator must look.
func exitCodeFor(err error) int {
	if err == nil {
		return 0
	}
	var ex *supervisor.ExhaustedError
	var mr *supervisor.MinRanksError
	if errors.As(err, &ex) || errors.As(err, &mr) {
		return 1
	}
	if supervisor.Retryable(err) {
		return exitRetryable
	}
	return 1
}

// logf prints one diagnostic line on stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dlouvain: "+format+"\n", args...)
}

// runFailf reports a failed run and exits with its classified code.
func runFailf(err error, format string, args ...interface{}) {
	logf(format, args...)
	os.Exit(exitCodeFor(err))
}

func fatalf(format string, args ...interface{}) {
	logf(format, args...)
	os.Exit(1)
}
