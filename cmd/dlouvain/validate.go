// Flag validation for dlouvain: catch contradictory or out-of-range flag
// combinations before any world is launched, so misuse fails fast with exit
// code 2 and a usage hint instead of a confusing mid-run error.
package main

import (
	"errors"
	"fmt"

	"distlouvain/internal/supervisor"
)

// flagValues carries the parsed flags validateFlags inspects. A struct (not
// the flag pointers) keeps the rules independently testable.
type flagValues struct {
	np          int
	threads     int
	alpha       float64
	tau         float64
	supervise   bool
	minRanks    int
	maxRestarts int
	transport   string
	rank        int
	coord       string
	coordEpoch  int
	hostAgent   bool
	agentSlots  int
	chaos       string
}

// validateFlags rejects flag combinations that cannot describe a valid run.
// It reports the FIRST violation: one clear complaint beats a wall of them.
func validateFlags(v flagValues) error {
	if v.hostAgent {
		// Host-agent mode executes ranks on a driver's behalf; none of the
		// run-shaping flags below apply to it.
		if v.coord == "" {
			return errors.New("-host-agent requires -coord: the agent registers with the coordinator")
		}
		if v.agentSlots < 1 {
			return fmt.Errorf("-slots must be >= 1 (got %d)", v.agentSlots)
		}
		return nil
	}
	switch v.transport {
	case "inproc", "tcp", "tcp-local", "tcp-remote":
	default:
		return fmt.Errorf("unknown -transport %q (want inproc, tcp, tcp-local, or tcp-remote)", v.transport)
	}
	if v.np < 1 {
		return fmt.Errorf("-np must be >= 1 (got %d)", v.np)
	}
	if v.threads < 1 {
		return fmt.Errorf("-threads must be >= 1 (got %d)", v.threads)
	}
	if v.alpha < 0 || v.alpha > 1 {
		return fmt.Errorf("-alpha must be in [0, 1] (got %g)", v.alpha)
	}
	if v.tau < 0 {
		return fmt.Errorf("-tau must be non-negative (got %g)", v.tau)
	}
	switch v.transport {
	case "tcp":
		if v.coord == "" {
			return errors.New("-transport tcp needs -coord: ranks rendezvous through a coordinator (cmd/dcoord); -transport tcp-local brings its own")
		}
		if v.coordEpoch < 1 {
			return fmt.Errorf("-coord-epoch must be >= 1 (got %d)", v.coordEpoch)
		}
		if v.rank < 0 || v.rank >= v.np {
			return fmt.Errorf("-rank %d out of range [0,%d) of the -np world", v.rank, v.np)
		}
	case "tcp-remote":
		if v.coord == "" {
			return errors.New("-transport tcp-remote requires -coord: ranks are placed on coordinator-registered hosts")
		}
	}
	supervised := v.supervise || v.transport == "tcp-remote"
	chaos, err := parseChaos(v.chaos)
	if err != nil {
		return err
	}
	for _, p := range chaos.points {
		switch {
		case v.transport == "tcp":
			return fmt.Errorf("-chaos %s needs a launcher to fire it, and a -transport tcp rank has none: use inproc, tcp-local or tcp-remote", p.item)
		case p.rank < 0 || p.rank >= v.np:
			return fmt.Errorf("-chaos %s: rank %d out of range [0,%d) of the -np world", p.item, p.rank, v.np)
		case p.fault == supervisor.FaultHang && !supervised:
			return fmt.Errorf("-chaos %s freezes a rank for good without -supervise: only the supervisor's hang detector ends it", p.item)
		}
	}
	if supervised {
		if v.minRanks < 1 {
			return fmt.Errorf("-min-ranks must be >= 1 (got %d)", v.minRanks)
		}
		if v.minRanks > v.np {
			return fmt.Errorf("-min-ranks %d exceeds -np %d: degradation can only shrink the world", v.minRanks, v.np)
		}
		if v.maxRestarts < 1 {
			return fmt.Errorf("-max-restarts must be >= 1 (got %d): omit -supervise for a run that never restarts", v.maxRestarts)
		}
	}
	return nil
}
