package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"distlouvain/internal/gen"
	"distlouvain/internal/gio"
	"distlouvain/internal/service"
)

// svcInputs is the svc-mixed workload's input: a set of distinct LFR graphs
// on disk, which is all the daemon ever sees of them, and one more graph for
// the warm-up that no measured request refers to.
type svcInputs struct {
	graphs   []*input
	paths    []string
	warm     *input
	warmPath string
}

const (
	svcClients  = 2
	svcPollTick = time.Millisecond
)

// makeSvcInputs generates and writes the graphs. Every generator seed derives
// from the workload seed.
func makeSvcInputs(opt *options, dir string) (*svcInputs, error) {
	count := int(pick(opt.quick, 4, 40))
	si := &svcInputs{}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for i := 0; i <= count; i++ {
		n, edges, truth, err := gen.LFR(gen.DefaultLFR(pick(opt.quick, 2000, 8000), 0.3, opt.seed<<8+uint64(i)))
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("g%02d.bin", i))
		if err := gio.WriteBinary(path, n, edges); err != nil {
			return nil, err
		}
		in := &input{n: n, edges: edges, truth: truth}
		if i == count {
			si.warm, si.warmPath = in, path
			break
		}
		si.graphs = append(si.graphs, in)
		si.paths = append(si.paths, path)
	}
	return si, nil
}

// request is one step of a client's walk: submit graph g, which the client
// has (repeat) or has not (cold) completed before.
type request struct {
	graph  int
	repeat bool
}

// clientWalks deals the graphs out to the clients and gives each client a
// seeded order over its graphs in which every graph appears twice: the first
// appearance is the cold request, the second the repeat. A client waits for
// each job before sending the next, so a repeat always follows its own
// completed cold job and must be a cache hit.
func clientWalks(graphs int, seed uint64) [][]request {
	rng := rand.New(rand.NewSource(int64(seed)))
	walks := make([][]request, svcClients)
	for c := range walks {
		var slots []int
		for g := c; g < graphs; g += svcClients {
			slots = append(slots, g, g)
		}
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		seen := map[int]bool{}
		for _, g := range slots {
			walks[c] = append(walks[c], request{graph: g, repeat: seen[g]})
			seen[g] = true
		}
	}
	return walks
}

// jobTrace is what a client saw of one job.
type jobTrace struct {
	req      request
	view     service.View // terminal view
	result   service.Result
	submitMS float64 // POST round trip
	doneMS   float64 // submit → terminal state observed
	fetchMS  float64 // result with assignment
	err      error
}

// sequenceOut is one whole mixed sequence against one fresh daemon.
type sequenceOut struct {
	jobs  []jobTrace
	wall  time.Duration
	stats service.Stats
}

// daemon is a service.Service behind a real http.Server on a loopback port.
type daemon struct {
	svc  *service.Service
	srv  *http.Server
	base string
	dir  string
	done chan struct{}
}

func startDaemon(workDir string, jobs int) (*daemon, error) {
	dir, err := os.MkdirTemp(workDir, "svc-")
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Options{
		DataDir:    dir,
		RankBudget: 2,
		KeepJobs:   2 * jobs, // every job of the sequence stays fetchable
		CacheCap:   2 * jobs,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{svc: svc, srv: &http.Server{Handler: svc.Handler()}, base: "http://" + ln.Addr().String(), dir: dir, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return d, nil
}

// stop shuts the server and the service down and waits for both.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	<-d.done
	d.svc.Close()
	os.RemoveAll(d.dir)
}

// client is one closed-loop HTTP user with its own connection pool.
type client struct {
	http *http.Client
	base string
	lane int
	rec  *recorder
}

func newClient(base string, lane int, rec *recorder) *client {
	return &client{http: &http.Client{Transport: &http.Transport{}}, base: base, lane: lane, rec: rec}
}

func (c *client) call(method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// do walks one job through the API the way a user does: submit, poll the
// status until it is terminal, fetch the result with its assignment.
func (c *client) do(path string, req request, parent int) jobTrace {
	jt := jobTrace{req: req}
	ms := func(since time.Time) float64 { return float64(time.Since(since)) / float64(time.Millisecond) }
	jsp := c.rec.begin("http.job", parent, c.lane)
	defer c.rec.end(jsp)

	start := time.Now()
	sp := c.rec.begin("http.submit", jsp, c.lane)
	_, jt.err = c.call("POST", "/v1/jobs", service.JobSpec{GraphPath: path, Ranks: 2}, &jt.view)
	c.rec.end(sp)
	jt.submitMS = ms(start)
	if jt.err != nil {
		return jt
	}

	sp = c.rec.begin("http.poll", jsp, c.lane)
	for !jt.view.State.Terminal() {
		time.Sleep(svcPollTick)
		if _, jt.err = c.call("GET", "/v1/jobs/"+jt.view.ID, nil, &jt.view); jt.err != nil {
			break
		}
	}
	c.rec.end(sp)
	jt.doneMS = ms(start)
	if jt.err != nil {
		return jt
	}
	if jt.view.State != service.StateDone {
		jt.err = fmt.Errorf("job %s ended %s: %s", jt.view.ID, jt.view.State, jt.view.Error)
		return jt
	}

	fetch := time.Now()
	sp = c.rec.begin("http.fetch", jsp, c.lane)
	_, jt.err = c.call("GET", "/v1/jobs/"+jt.view.ID+"/result", nil, &jt.result)
	c.rec.end(sp)
	jt.fetchMS = ms(fetch)
	return jt
}

// runSequence starts a fresh daemon (empty cache, empty job directory), lets
// the clients walk their sequences concurrently, and stops it again.
func runSequence(si *svcInputs, opt *options, rec *recorder, parent int) (*sequenceOut, error) {
	walks := clientWalks(len(si.paths), opt.seed)
	d, err := startDaemon(opt.workDir, 2*len(si.paths))
	if err != nil {
		return nil, err
	}
	defer d.stop()

	out := &sequenceOut{}
	traces := make([][]jobTrace, len(walks))
	var wg sync.WaitGroup
	start := time.Now()
	for ci, walk := range walks {
		wg.Add(1)
		go func(ci int, walk []request) {
			defer wg.Done()
			c := newClient(d.base, 1+ci, rec)
			defer c.http.CloseIdleConnections()
			for _, req := range walk {
				traces[ci] = append(traces[ci], c.do(si.paths[req.graph], req, parent))
			}
		}(ci, walk)
	}
	wg.Wait()
	out.wall = time.Since(start)
	for _, t := range traces {
		out.jobs = append(out.jobs, t...)
	}
	out.stats = d.svc.Stats()
	return out, nil
}

// verifySequence checks every job of a sequence after the clock has stopped:
// it completed, its answer is a correct partition of its graph, repeats were
// served from the cache with the first answer's bits, and the daemon launched
// exactly one world per distinct graph.
func verifySequence(o *outcome, si *svcInputs, seq *sequenceOut) {
	first := map[int]float64{}
	cold := 0
	for _, jt := range seq.jobs {
		err := jt.err
		if err == nil {
			err = verifyAssignment(si.graphs[jt.req.graph], jt.result.Assignment, jt.result.Communities, jt.result.Modularity)
		}
		if err == nil && jt.result.CacheHit != jt.req.repeat {
			err = fmt.Errorf("graph %d: cache_hit=%v on a request with repeat=%v", jt.req.graph, jt.result.CacheHit, jt.req.repeat)
		}
		if err == nil && jt.req.repeat && math.Float64bits(first[jt.req.graph]) != math.Float64bits(jt.result.Modularity) {
			err = fmt.Errorf("graph %d: cache hit returned Q %v, the cold job %v", jt.req.graph, jt.result.Modularity, first[jt.req.graph])
		}
		if !jt.req.repeat {
			cold++
			first[jt.req.graph] = jt.result.Modularity
		}
		o.attempt(err)
	}
	hits := len(seq.jobs) - cold
	if int(seq.stats.CacheHits) != hits || int(seq.stats.WorldsLaunched) != cold || seq.stats.Restarts != 0 {
		o.problem("daemon counters: %d cache hits (want %d), %d worlds launched (want %d), %d restarts (want 0)",
			seq.stats.CacheHits, hits, seq.stats.WorldsLaunched, cold, seq.stats.Restarts)
	}
}

// latencies splits a sequence's submit→terminal latencies into cold and hit.
func (s *sequenceOut) latencies() (cold, hit []float64) {
	for _, jt := range s.jobs {
		if jt.err != nil {
			continue
		}
		if jt.req.repeat {
			hit = append(hit, jt.doneMS)
		} else {
			cold = append(cold, jt.doneMS)
		}
	}
	return cold, hit
}

// svcSetup generates the inputs (several times, for a median), then starts a
// daemon and pushes the warm-up graph through it cold and as a hit, so that
// the HTTP stack, the supervisor and the heap are warm before anything is
// timed. It records setup_s.
func svcSetup(o *outcome, opt *options) *svcInputs {
	si, genSecs, err := repeatSetup(opt, func() (*svcInputs, error) {
		return makeSvcInputs(opt, filepath.Join(opt.workDir, "graphs"))
	})
	if err != nil {
		o.problem("generate: %v", err)
		return nil
	}
	t0 := time.Now()
	d, err := startDaemon(opt.workDir, 2)
	if err != nil {
		o.problem("warm-up daemon: %v", err)
		return nil
	}
	c := newClient(d.base, 0, nil)
	for _, req := range []request{{repeat: false}, {repeat: true}} {
		jt := c.do(si.warmPath, req, -1)
		if jt.err == nil {
			jt.err = verifyAssignment(si.warm, jt.result.Assignment, jt.result.Communities, jt.result.Modularity)
		}
		if jt.err != nil {
			o.problem("warm-up job: %v", jt.err)
		}
	}
	c.http.CloseIdleConnections()
	d.stop()
	o.Samples.add("setup_s", genSecs+time.Since(t0).Seconds())
	return si
}

// timedService is the timed pass of svc-mixed: whole sequences, each against
// a fresh daemon, with nothing attached.
func timedService(w workload, opt *options) *outcome {
	o := newOutcome(w.Name)
	si := svcSetup(o, opt)
	if si == nil {
		return o
	}
	var measured time.Duration
	var qmean float64
	for reps := 0; opt.moreReps(w, reps, measured); reps++ {
		var seq *sequenceOut
		var err error
		mib := allocMiB(func() { seq, err = runSequence(si, opt, nil, -1) })
		if err != nil {
			o.attempt(err)
			continue
		}
		verifySequence(o, si, seq)
		measured += seq.wall
		o.Samples.add("wall_s", seq.wall.Seconds())
		o.Samples.add("alloc_mb", mib)
		qmean = 0
		for _, jt := range seq.jobs {
			if !jt.req.repeat {
				qmean += jt.result.Modularity / float64(len(si.graphs))
			}
		}
	}
	if qmean != 0 {
		o.Samples.add("modularity", qmean)
	}
	return o
}

// tracedService is the traced pass of svc-mixed: the layers of a direct run
// on the first graph (the daemon cannot be handed tracers from outside, so
// rank spans exist for that run only), then one whole sequence with a harness
// span around every HTTP call, read back through the job views and counters
// the daemon already publishes.
func tracedService(w workload, opt *options) *outcome {
	return tracedPass(w, opt, func(o *outcome, rec *recorder, root int) []rankTrace {
		var si *svcInputs
		var err error
		rec.span("gen", root, func() { si, err = makeSvcInputs(opt, filepath.Join(opt.workDir, "graphs")) })
		if err != nil {
			o.problem("generate: %v", err)
			return nil
		}
		ranks := graphLayers(o, rec, root, si.graphs[0], false, opt)

		sp := rec.begin("sequence", root, 0)
		seq, err := runSequence(si, opt, rec, sp)
		rec.end(sp)
		if err != nil {
			o.problem("sequence: %v", err)
		} else {
			rec.span("verify", root, func() { verifySequence(o, si, seq) })
			serviceMetrics(o, seq)
		}

		rec.span("gio.ReadBinary", root, func() {
			st, err := os.Stat(si.paths[0])
			if err == nil {
				read := perCall(1, func() { _, _, err = gio.ReadBinary(si.paths[0]) })
				o.Samples.add("gio.read_mb_per_s", float64(st.Size())/1e6/read.Seconds())
			}
			if err != nil {
				o.problem("read graph file: %v", err)
			}
		})

		microLayers(o, rec, root, opt)
		return ranks
	})
}

// serviceMetrics derives the daemon's per-layer numbers from one sequence.
func serviceMetrics(o *outcome, seq *sequenceOut) {
	s := o.Samples
	cold, hit := seq.latencies()
	var submit, fetch, queue, run []float64
	for _, jt := range seq.jobs {
		if jt.err != nil {
			continue
		}
		submit = append(submit, jt.submitMS)
		fetch = append(fetch, jt.fetchMS)
		if !jt.req.repeat {
			queue = append(queue, float64(jt.view.StartedMS-jt.view.CreatedMS))
			run = append(run, float64(jt.view.FinishedMS-jt.view.StartedMS))
		}
	}
	if len(cold) == 0 || len(hit) == 0 {
		return // every job failed; verifySequence has said why
	}
	tail := tailPercentile(len(cold), 75)
	note := fmt.Sprintf("p%g of %d jobs", tail, len(cold))
	s.add("service.jobs_per_s", float64(len(seq.jobs))/seq.wall.Seconds())
	s.add("service.cold_p50_ms", percentile(cold, 50))
	s.add("service.cold_p75_ms", percentile(cold, tail))
	s.add("service.hit_p50_ms", percentile(hit, 50))
	s.add("service.hit_p75_ms", percentile(hit, tail))
	o.Notes["service.cold_p75_ms"], o.Notes["service.hit_p75_ms"] = note, note
	s.add("service.submit_ms_p50", percentile(submit, 50))
	s.add("service.queue_wait_ms_p50", percentile(queue, 50))
	s.add("service.run_ms_p50", percentile(run, 50))
	s.add("service.result_fetch_ms_p50", percentile(fetch, 50))
	if direct, ok := s["core.wall_untraced_s"]; ok {
		s.add("service.overhead_ms", percentile(cold, 50)-direct[0]*1e3)
	}
	s.add("service.cache_hits", float64(seq.stats.CacheHits))
	s.add("service.worlds_launched", float64(seq.stats.WorldsLaunched))
	s.add("supervisor.restarts", float64(seq.stats.Restarts))
}
