package main

import (
	"math"
	"regexp"
	"sort"
)

// median returns the middle of vs (mean of the two middle values for an even
// count). It panics on an empty slice: every caller has at least one sample,
// and a metric with none is a harness bug, not a measurement.
func median(vs []float64) float64 {
	s := sortedCopy(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vs, n=4) does (the "exclusive" method: position
// i·(n+1)/4 with linear interpolation, clamped to the sample range), because
// that is the rule the acceptance check applies to the ten-seed spreads. A
// single sample is its own quartiles.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentile is the nearest-rank percentile p ∈ (0,100] of vs.
func percentile(vs []float64, p float64) float64 {
	s := sortedCopy(vs)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(k, 1), len(s))-1]
}

// tailLadder lists the percentiles a latency tail may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile is the highest percentile of tailLadder, not above want,
// that still has at least ten samples beyond it: a p99 of forty samples is
// the maximum in disguise, so it is reported as the p75 it can support. With
// fewer than twenty samples nothing beyond the median is defensible.
func tailPercentile(n int, want float64) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if p <= want && float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

func sortedCopy(vs []float64) []float64 {
	if len(vs) == 0 {
		panic("benchmark: statistic of zero samples")
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name fits the BENCHMARK.json naming rule:
// at most 64 letters, digits, '_', '.' and '-', starting with a letter or
// digit.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }
