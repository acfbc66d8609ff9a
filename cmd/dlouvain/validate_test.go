package main

import (
	"errors"
	"os/exec"
	"strings"
	"testing"
)

// valid returns a flagValues that passes validation; tests mutate one field.
func valid() flagValues {
	return flagValues{
		np: 4, threads: 1, alpha: 0.25, tau: 0,
		ckptEvery: 1, ckptKeep: 2,
		supervise: false, minRanks: 1, maxRestarts: 5,
		transport: "inproc", coordEpoch: 1, agentSlots: 1,
	}
}

func TestValidateFlagsAcceptsDefaults(t *testing.T) {
	if err := validateFlags(valid()); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	sup := valid()
	sup.supervise = true
	if err := validateFlags(sup); err != nil {
		t.Fatalf("default supervised flags rejected: %v", err)
	}
}

func TestValidateFlagsRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*flagValues)
		want string // substring of the complaint
	}{
		{"negative ckpt-every", func(v *flagValues) { v.ckptEvery = -1 }, "-ckpt-every"},
		{"zero ckpt-every", func(v *flagValues) { v.ckptEvery = 0 }, "-ckpt-every"},
		{"zero ckpt-keep", func(v *flagValues) { v.ckptKeep = 0 }, "-ckpt-keep"},
		{"min-ranks over np", func(v *flagValues) { v.supervise = true; v.minRanks = 9; v.np = 4 }, "-min-ranks"},
		{"zero min-ranks", func(v *flagValues) { v.supervise = true; v.minRanks = 0 }, "-min-ranks"},
		{"zero np", func(v *flagValues) { v.np = 0 }, "-np"},
		{"zero threads", func(v *flagValues) { v.threads = 0 }, "-threads"},
		{"alpha above one", func(v *flagValues) { v.alpha = 1.5 }, "-alpha"},
		{"negative tau", func(v *flagValues) { v.tau = -1e-6 }, "-tau"},
		{"unknown transport", func(v *flagValues) { v.transport = "carrier-pigeon" }, "-transport"},

		// Topology flags: -hosts hygiene, -rank bounds, -coord exclusivity.
		{"tcp without hosts or coord", func(v *flagValues) { v.transport = "tcp" }, "-hosts or -coord"},
		{"coord with hosts", func(v *flagValues) {
			v.transport = "tcp"
			v.coord = "127.0.0.1:9470"
			v.hosts = "127.0.0.1:7000,127.0.0.1:7001"
		}, "mutually exclusive"},
		{"hosts entry without port", func(v *flagValues) {
			v.transport = "tcp"
			v.hosts = "127.0.0.1:7000,127.0.0.1"
		}, "not host:port"},
		{"empty hosts entry", func(v *flagValues) {
			v.transport = "tcp"
			v.hosts = "127.0.0.1:7000,,127.0.0.1:7001"
		}, "not host:port"},
		{"duplicate hosts entry", func(v *flagValues) {
			v.transport = "tcp"
			v.hosts = "127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7000"
		}, "duplicates"},
		{"rank beyond hosts list", func(v *flagValues) {
			v.transport = "tcp"
			v.hosts = "127.0.0.1:7000,127.0.0.1:7001"
			v.rank = 2
		}, "-rank"},
		{"negative rank", func(v *flagValues) {
			v.transport = "tcp"
			v.hosts = "127.0.0.1:7000,127.0.0.1:7001"
			v.rank = -1
		}, "-rank"},
		{"rank beyond np under coord", func(v *flagValues) {
			v.transport = "tcp"
			v.coord = "127.0.0.1:9470"
			v.rank = 4
			v.np = 4
		}, "-rank"},
		{"zero coord-epoch", func(v *flagValues) {
			v.transport = "tcp"
			v.coord = "127.0.0.1:9470"
			v.coordEpoch = 0
		}, "-coord-epoch"},
		{"tcp-remote without coord", func(v *flagValues) { v.transport = "tcp-remote" }, "-coord"},
		{"tcp-remote min-ranks over np", func(v *flagValues) {
			v.transport = "tcp-remote"
			v.coord = "127.0.0.1:9470"
			v.minRanks = 9
		}, "-min-ranks"},
		{"host-agent without coord", func(v *flagValues) { v.hostAgent = true }, "-coord"},
		{"host-agent zero slots", func(v *flagValues) {
			v.hostAgent = true
			v.coord = "127.0.0.1:9470"
			v.agentSlots = 0
		}, "-slots"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := valid()
			tc.mut(&v)
			err := validateFlags(v)
			if err == nil {
				t.Fatalf("expected rejection, got nil")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("complaint %q does not name %q", err, tc.want)
			}
		})
	}
}

// The topology combinations that must pass: a clean host list, a coord
// rendezvous rank, a coord-placed driver, and a host agent.
func TestValidateFlagsAcceptsTopologies(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*flagValues)
	}{
		{"tcp with hosts", func(v *flagValues) {
			v.transport = "tcp"
			v.hosts = "127.0.0.1:7000,127.0.0.1:7001,10.0.0.2:7000"
			v.rank = 2
		}},
		{"tcp with coord", func(v *flagValues) {
			v.transport = "tcp"
			v.coord = "127.0.0.1:9470"
			v.rank = 3
		}},
		{"tcp-remote driver", func(v *flagValues) {
			v.transport = "tcp-remote"
			v.coord = "127.0.0.1:9470"
		}},
		{"host agent", func(v *flagValues) {
			v.hostAgent = true
			v.coord = "127.0.0.1:9470"
			v.agentSlots = 4
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := valid()
			tc.mut(&v)
			if err := validateFlags(v); err != nil {
				t.Fatalf("valid topology rejected: %v", err)
			}
		})
	}
}

// Unsupervised runs ignore -min-ranks entirely: a value bigger than -np is
// only a contradiction when supervision can degrade the world.
func TestValidateFlagsMinRanksIgnoredWithoutSupervise(t *testing.T) {
	v := valid()
	v.minRanks = 100
	if err := validateFlags(v); err != nil {
		t.Fatalf("min-ranks should be ignored unsupervised: %v", err)
	}
}

// The result-neutral switches are gone from the binary, not merely ignored:
// a command line that still carries one fails as an unknown flag, exit 2.
func TestRetiredFlagsRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin, graphPath, _ := buildBinaryAndGraph(t)
	for _, name := range []string{"frontier", "frontier-sparse-threshold", "neighbor-coll"} {
		t.Run(name, func(t *testing.T) {
			out, err := exec.Command(bin, "-"+name+"=1", graphPath).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined") {
				t.Fatalf("-%s: err %v, output:\n%s", name, err, out)
			}
		})
	}
}
