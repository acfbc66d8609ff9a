package main

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"distlouvain/internal/mpi"
)

func TestExitCodeFor(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, 0},
		{"plain", errors.New("boom"), 1},
		{"peer lost", &mpi.ErrPeerLost{Peer: 2, Cause: errors.New("eof")}, 3},
		{"wrapped peer lost", fmt.Errorf("rank 1: %w", &mpi.ErrPeerLost{Peer: 0, Cause: errors.New("eof")}), 3},
		{"killed", fmt.Errorf("send: %w", mpi.ErrKilled), 3},
		{"deadline", fmt.Errorf("collective: %w", os.ErrDeadlineExceeded), 3},
		{"usage-ish fatal", fmt.Errorf("bad graph header"), 1},
	}
	for _, c := range cases {
		if got := exitCodeFor(c.err); got != c.want {
			t.Errorf("%s: exitCodeFor = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestBuildConfig(t *testing.T) {
	cases := []struct {
		variant string
		alpha   float64
		want    string
		wantErr bool
	}{
		{"baseline", 0, "Baseline", false},
		{"tc", 0, "Threshold Cycling", false},
		{"et", 0.25, "ET(0.25)", false},
		{"etc", 0.75, "ETC(0.75)", false},
		{"ettc", 0.25, "ET(0.25)+TC", false},
		{"et", 0, "", true},
		{"ettc", 1.5, "", true},
		{"bogus", 0, "", true},
	}
	for _, c := range cases {
		cfg, err := buildConfig(c.variant, c.alpha)
		if c.wantErr {
			if err == nil {
				t.Fatalf("%s: expected error", c.variant)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.variant, err)
		}
		if got := cfg.VariantName(); got != c.want {
			t.Fatalf("%s: VariantName = %q, want %q", c.variant, got, c.want)
		}
	}
}
