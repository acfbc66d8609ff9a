# Build, test and reproduce targets for the distributed Louvain library.

GO ?= go

.PHONY: all check build vet test test-race test-race-all test-chaos test-wan test-obsv test-frontier cover-core service-smoke golden bench bench-kernels profile bench-record bench-smoke bench-quick fuzz experiments experiments-md clean

all: check

# The full gate: compile, static analysis, tests, and a race-detector pass
# over the packages that juggle rank goroutines, plus the multi-host WAN
# chaos suite over real sockets.
check: build vet test test-race bench-kernels service-smoke test-wan

build:
	$(GO) build ./...

# go vet, and gofmt as a gate: any file gofmt would rewrite fails the target.
# The benchmark/ module is a module of its own that ./... never reaches; vetting
# it here compiles it, so an internal-API change that breaks it fails `check`.
vet:
	$(GO) vet ./...
	$(GO) vet -C benchmark ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l: not formatted:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# The race detector multiplies runtime, so the default pass covers the
# concurrency-heavy packages: the transport/collective layer, the
# distributed algorithm driven on top of it, the graph assembly that every
# rank goroutine runs into storage its caller hands back, and the tracer
# that all of them emit spans into from rank goroutines.
test-race:
	$(GO) test -race ./internal/mpi/... ./internal/core/... ./internal/dgraph/... ./internal/obsv/...

# End-to-end daemon gate: the service package's acceptance suite (budget
# scheduling, abort/resume bit-identity, cache hits, SSE) under the race
# detector, plus the process-level dlouvaind smoke test — start the real
# daemon, submit over HTTP (second job must hit the cache), stream SSE,
# compare the answer against a CLI dlouvain run, drain with SIGTERM.
service-smoke:
	$(GO) test -race -count=1 ./internal/service/... ./cmd/dlouvaind/...

# The observability suite under the race detector: golden trace-structure
# comparisons, determinism, zero-alloc disabled-path, and concurrent span
# emission. -count=1 defeats the test cache so reruns re-exercise the races.
test-obsv:
	$(GO) test -race -count=1 ./internal/obsv/...

# The one deliberate re-record: regenerate the golden trace-structure files
# and BENCH_paperbench.json from the current run. A change of trajectory or
# protocol has to refresh both, and the diff of the two is its reviewable
# record: control flow and instrumentation points in the traces; modularity,
# phase structure, payload bytes and visit counts in the baseline.
golden: bench-record
	$(GO) test ./internal/obsv -run TestGoldenTraces -update-golden -count=1

test-race-all:
	$(GO) test -race ./...

# The chaos suite under the race detector: supervised worlds with injected
# crashes (SIGKILL / transport kill), hangs (SIGSTOP / blocked collectives)
# and flapping, all required to converge bit-identical to an undisturbed
# run — plus the unsupervised tcp-local run and its kill → resume loop
# (TestTCPLocalUnsupervised: one attempt of the same process launcher). The
# whole supervisor package runs three times, so the hang windows it derives
# from one number are exercised for flakes. Kept out of `check` because
# process spawning and hang windows make it slower than the fast gate.
test-chaos:
	$(GO) test -race -count=3 ./internal/supervisor/...
	$(GO) test -race -count=1 -run 'Chaos|Supervisor|Supervise|TCPLocal|Interrupt|Detector|Backoff|Beacon' \
		./internal/core/... ./cmd/dlouvain/...

# The frontier differential suite under the race detector: the shipped sweep
# (and, as pinned by the tests' oracle value, each representation of its
# active set) must reproduce the full-scan oracle bit-for-bit on every
# graph × variant × rank-count combination (trajectories, modularity bits,
# final assignment), including kill→resume and thread-count interplay,
# plus the frontier.Set unit/property tests and the slot /
# row-cache differential (slots_test.go: reference kernels by global ID, every
# iteration's Q against the gathered labels, two pinned trajectory digests),
# and the Step-5 aggregator's differential (coarsen_test.go: the map oracle's
# arcs at every thread count, each pair once per rank, allocation ceiling),
# and the tie rule's properties (tierule_test.go: relabelling, quality floor,
# ET on the mesh), and the return rule's (oscillation_test.go: no plateau on
# LFR, the swap gadget), and the property suite (property_test.go: rank /
# thread / transport / restart independence, exact sums and the reported Q on
# graphs from every generator — the race detector's smaller corpus).
test-frontier:
	$(GO) test -race -count=1 -run 'Frontier|CoarseArcs|TieRule|Oscillation|Propert' ./internal/core/... ./internal/frontier/...

# go vet plus a race-mode coverage run over the algorithm core; prints the
# per-function coverage table CI publishes as the job summary.
cover-core:
	$(GO) vet ./internal/core/...
	$(GO) test -race -count=1 -covermode=atomic -coverprofile=cover_core.out ./internal/core
	$(GO) tool cover -func=cover_core.out

# The multi-host WAN chaos suite: coordinator rendezvous, host-agent and
# tcp-remote driver processes over real TCP sockets, disturbed by whole-host
# SIGKILL, asymmetric partitions (chaosnet proxy), absent coordinators,
# stale-epoch fencing and slow links — every run required to finish
# bit-identical to the undisturbed baseline. Includes the coordinator's and
# the chaos proxy's own unit suites.
test-wan:
	$(GO) test -race -count=1 ./internal/coord/... ./internal/chaosnet/...
	$(GO) test -race -count=1 -run TestWAN ./cmd/dlouvain/...

bench:
	$(GO) test -bench=. -benchmem ./...

# One pass of each shipped kernel (sweep, Step-5 coarse arcs) and of its map
# oracle, and of one whole rebuild, so the benchmarks keep compiling and
# running. The benchmark names live in this one pattern.
bench-kernels:
	$(GO) test -run '^$$' -bench 'Benchmark((Sweep|CoarseArcs)(Slots|Map)|Rebuild)$$' -benchtime 1x ./internal/core

# CPU profile of one whole run on a benchmark/ workload's input (W is
# band8000, lfr100k or rmat17; see BenchmarkWorkload): the top of the
# profile is what ROADMAP's "what a fresh profile says is next" quotes.
# The test binary and the profile land in the repository root (ignored).
W ?= band8000
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkWorkload/$(W)$$' -benchtime 3x -cpuprofile cpu.prof .
	$(GO) tool pprof -top -nodecount 40 distlouvain.test cpu.prof

# Re-record the committed regression baseline (`make golden` calls this):
# one run per testbed graph plus the frontier gate's mesh runs. Every value in
# BENCH_paperbench.json is deterministic, so on an unchanged tree the file
# comes out byte for byte as committed.
bench-record:
	$(GO) run ./cmd/paperbench -exp bench -json > BENCH_paperbench.json
	@echo "recorded BENCH_paperbench.json; review and commit it"

# Rerun the bench workloads and fail on any difference from the committed
# baseline. cmd/paperbench's TestCommittedBaselineLoads does the same inside
# `make test`; this is the by-hand form.
bench-smoke:
	$(GO) run ./cmd/paperbench -exp bench -check BENCH_paperbench.json > /dev/null

# The layered performance benchmark (benchmark/, a Go module of its own that
# root `go build ./... && go test ./...` never compiles): vet it, run its
# tests and one -quick pass of all five workloads, so an internal-API change
# that breaks the performance gate fails here instead of silently.
bench-quick:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...
	bash benchmark/run.sh -quick

# Short fuzz passes over the input parsers, the checkpoint container and its
# section decoders, the flat kernel tables and the flat.Index that numbers
# every ghost and tail slot (each vs a map oracle), the varint codec, the TCP
# reader filling pooled buffers from a peer's raw stream, the mesh handshake's
# acceptor (accept iff rank and fence are right, closed otherwise), the ghost refresh
# frame decoder, the owner-request decoder, the frontier
# active-set (vs a map+sort oracle), the counting-sort graph assembly (vs the
# sort-based oracle), the coordinator's session lines (bounded, and unable
# to change a job's membership or spawns) and the supervisor's hang detector
# (random worlds with dropped beacons and a frozen rank, vs the world rule),
# the daemon's job JSON (a 4xx or a spec inside every bound) and whole runs
# on drawn graphs (core's property suite, in-process ranks only).
# FUZZTIME is each pass's length; CI runs `make fuzz FUZZTIME=10s`, so this
# list is the only one.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/gio -fuzz FuzzReadEdgeListText -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gio -fuzz FuzzReadHeader -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gio -fuzz FuzzGroundTruth -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gio -fuzz FuzzReadMETIS -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ckpt -fuzz FuzzReadSnapshot -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -fuzz FuzzCheckpointSections -fuzztime $(FUZZTIME)
	$(GO) test ./internal/flat -fuzz FuzzFlatTable -fuzztime $(FUZZTIME)
	$(GO) test ./internal/flat -fuzz FuzzPairTable -fuzztime $(FUZZTIME)
	$(GO) test ./internal/flat -fuzz FuzzIndex -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mpi -fuzz FuzzVarintCodec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mpi -fuzz FuzzTCPFrames -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mpi -fuzz FuzzMeshHandshake -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -fuzz FuzzGhostFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -fuzz FuzzOwnerRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/frontier -fuzz FuzzFrontierSet -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dgraph -fuzz FuzzBuildFromArcs -fuzztime $(FUZZTIME)
	$(GO) test ./internal/coord -fuzz FuzzCoordLine -fuzztime $(FUZZTIME)
	$(GO) test ./internal/supervisor -fuzz FuzzDetector -fuzztime $(FUZZTIME)
	$(GO) test ./internal/service -fuzz FuzzJobSpec -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -fuzz FuzzRunProperties -fuzztime $(FUZZTIME)

# Regenerate every table and figure of the paper (text to stdout).
experiments:
	$(GO) run ./cmd/paperbench -exp all

# Same, as the markdown body used by EXPERIMENTS.md.
experiments-md:
	$(GO) run ./cmd/paperbench -exp all -markdown

clean:
	$(GO) clean ./...
