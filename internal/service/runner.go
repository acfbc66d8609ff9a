package service

import (
	"fmt"
	"time"

	"distlouvain/internal/core"
	"distlouvain/internal/dgraph"
	"distlouvain/internal/gio"
	"distlouvain/internal/mpi"
	"distlouvain/internal/supervisor"
)

// runJob executes one admitted job under supervision and settles its
// terminal state. It runs on its own goroutine; budget bookkeeping happens
// through the scheduler callbacks.
func (s *Service) runJob(j *Job) {
	defer s.wg.Done()
	cfg, err := j.Spec.config()
	if err != nil { // validated at submit; defensive
		s.finishJob(j, nil, err)
		return
	}
	cfg.CheckpointDir = j.ckptDir()
	launcher := &supervisor.InprocLauncher{
		Config:   cfg,
		Vertices: j.vertices,
		Build: func(c *mpi.Comm) (*dgraph.DistGraph, error) {
			m, edges, err := gio.Segment(j.graphPath, c.Rank(), c.Size())
			if err != nil {
				return nil, err
			}
			return dgraph.BuildStream(c, j.vertices, m, edges, nil)
		},
	}

	policy := s.opt.Policy
	policy.MinRanks = j.Spec.MinRanks
	policy.Seed = cfg.Seed
	sopts := supervisor.Options{
		Policy: policy,
		Hang:   s.opt.Hang,
		Logf: func(format string, args ...any) {
			s.logf("job %s: "+format, append([]any{j.ID}, args...)...)
		},
		OnBeacon: func(b supervisor.Beacon) { s.onBeacon(j, b) },
		OnRestart: func(restarts, ranks int, cause error) {
			j.mu.Lock()
			j.restarts = restarts
			j.mu.Unlock()
			s.counters.restarts.Add(1)
			j.events.publish(Event{Kind: "restart", Ranks: ranks, Restarts: restarts, Msg: fmt.Sprint(cause)})
		},
		// Degradation shrinks the world below the admitted size; the freed
		// ranks go back to the shared budget so a queued job can take them.
		OnAttempt: func(spec supervisor.LaunchSpec) {
			j.mu.Lock()
			j.phaseSeen = false
			j.mu.Unlock()
			s.resizeJob(j, spec.Ranks)
		},
	}
	sup := supervisor.New(launcher, sopts)

	j.mu.Lock()
	j.interrupt = sup.Interrupt
	j.started = time.Now()
	j.mu.Unlock()

	runErr := sup.Run(j.Spec.Ranks)
	j.mu.Lock()
	j.interrupt = nil
	j.mu.Unlock()
	if runErr != nil {
		s.finishJob(j, nil, runErr)
		return
	}
	res, ranks := launcher.Result()
	if res == nil {
		s.finishJob(j, nil, fmt.Errorf("world completed without a rank-0 result (%d ranks)", ranks))
		return
	}
	s.finishJob(j, res, nil)
}

// onBeacon turns rank 0's supervisor beacons into job progress events; other
// ranks' beacons carry the same globally agreed milestones and would only
// duplicate the stream. An attempt whose first phase is not phase 0
// continued a committed checkpoint: that marks the job resumed.
func (s *Service) onBeacon(j *Job, b supervisor.Beacon) {
	if b.Rank != 0 {
		return
	}
	switch b.Kind {
	case core.ProgressPhaseStart:
		j.mu.Lock()
		j.resumed = j.resumed || !j.phaseSeen && b.Phase > 0
		j.phaseSeen = true
		j.mu.Unlock()
		j.setProgress(b.Phase, 0, b.Modularity)
		j.events.publish(Event{Kind: "phase-start", Phase: b.Phase, Modularity: b.Modularity})
	case core.ProgressIteration:
		j.setProgress(b.Phase, b.Iteration, b.Modularity)
		j.events.publish(Event{Kind: "iteration", Phase: b.Phase, Iteration: b.Iteration, Modularity: b.Modularity})
	case core.ProgressCheckpoint:
		j.events.publish(Event{Kind: "checkpoint", Phase: b.Phase, Modularity: b.Modularity})
	}
}

func (j *Job) setProgress(phase, iter int, q float64) {
	j.mu.Lock()
	j.progress = Progress{Phase: phase, Iteration: iter, Modularity: sanitizeFloat(q)}
	j.mu.Unlock()
}
