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
		{"min-ranks over np", func(v *flagValues) { v.supervise = true; v.minRanks = 9; v.np = 4 }, "-min-ranks"},
		{"zero min-ranks", func(v *flagValues) { v.supervise = true; v.minRanks = 0 }, "-min-ranks"},
		{"zero np", func(v *flagValues) { v.np = 0 }, "-np"},
		{"zero threads", func(v *flagValues) { v.threads = 0 }, "-threads"},
		{"alpha above one", func(v *flagValues) { v.alpha = 1.5 }, "-alpha"},
		{"negative tau", func(v *flagValues) { v.tau = -1e-6 }, "-tau"},
		{"unknown transport", func(v *flagValues) { v.transport = "carrier-pigeon" }, "-transport"},

		// Topology flags: -coord where the transport needs one, -rank bounds.
		{"tcp without coord", func(v *flagValues) { v.transport = "tcp" }, "-transport tcp needs -coord"},
		{"negative rank", func(v *flagValues) {
			v.transport = "tcp"
			v.coord = "127.0.0.1:9470"
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
		// "Never restart" is spelled by omitting -supervise: Policy.fill would
		// turn a zero budget into its default of five.
		{"zero max-restarts", func(v *flagValues) { v.supervise = true; v.maxRestarts = 0 }, "omit -supervise"},
		// -chaos: a well-formed spec, a rank inside the world, a launcher
		// to fire it, and a supervisor to end a freeze.
		{"malformed chaos", func(v *flagValues) { v.chaos = "kill=1" }, "-chaos"},
		{"chaos rank beyond np", func(v *flagValues) { v.chaos = "kill=4@1" }, "out of range"},
		{"chaos on tcp", func(v *flagValues) {
			v.transport = "tcp"
			v.coord = "127.0.0.1:9470"
			v.chaos = "kill=0@1"
		}, "-transport tcp"},
		{"chaos stop unsupervised", func(v *flagValues) { v.chaos = "stop=1@1" }, "-supervise"},
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

// The topology combinations that must pass, one row per way to start or
// join a world: goroutine ranks, self-spawned local processes, a coord
// rendezvous rank, a coord-placed driver, and a host agent.
func TestValidateFlagsAcceptsTopologies(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*flagValues)
	}{
		{"inproc supervised", func(v *flagValues) { v.supervise = true }},
		{"tcp-local", func(v *flagValues) { v.transport = "tcp-local" }},
		{"tcp-local supervised chaos", func(v *flagValues) {
			v.transport = "tcp-local"
			v.supervise = true
			v.chaos = "kill=0@0,stop=3@2,every"
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

// The result-neutral switches and the static -hosts rendezvous are not flags
// of the binary, not even ignored ones: a command line that carries one fails
// as an unknown flag, exit 2.
func TestRetiredFlagsRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin, graphPath, _ := buildBinaryAndGraph(t)
	for _, name := range []string{"frontier", "frontier-sparse-threshold", "neighbor-coll", "hosts"} {
		t.Run(name, func(t *testing.T) {
			out, err := exec.Command(bin, "-"+name+"=1", graphPath).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined") {
				t.Fatalf("-%s: err %v, output:\n%s", name, err, out)
			}
		})
	}
}

// An early-termination variant without a decay is a usage error, exit 2 —
// not a silent Baseline run.
func TestVariantWithoutAlphaRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin, graphPath, _ := buildBinaryAndGraph(t)
	out, err := exec.Command(bin, "-variant", "et", "-alpha", "0", graphPath).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "alpha") {
		t.Fatalf("-variant et -alpha 0: err %v, output:\n%s", err, out)
	}
}

// TestFlagSetPinned ratchets the CLI surface the way TestConfigFieldsPinned
// ratchets core.Config: the built binary defines exactly these flags, so
// adding one is a deliberate edit here (and a reason to ask which existing
// flag it replaces).
func TestFlagSetPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin, _, _ := buildBinaryAndGraph(t)
	want := []string{
		"advertise", "agent-host", "alpha", "backoff",
		"chaos", "ckpt-dir",
		"coord", "coord-epoch", "coord-job", "hang",
		"host-agent", "listen", "max-restarts", "min-ranks", "np", "o",
		"pprof-addr", "rank", "remote-bin", "report", "resume",
		"seed", "slots", "supervise", "tau", "threads", "timeout",
		"trace-dir", "transport", "truth", "v", "variant",
	}
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits 0 or 2 by Go version
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		// flag.PrintDefaults: "  -name type" then a tab-indented usage line,
		// already sorted by name.
		if strings.HasPrefix(line, "  -") {
			got = append(got, strings.Fields(line[3:])[0])
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("dlouvain defines %d flags, pinned %d:\n got  %v\n want %v", len(got), len(want), got, want)
	}
}
