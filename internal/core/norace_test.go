//go:build !race

package core

// raceEnabled reports whether the tests run under the race detector, which
// allocates shadow state of its own.
const raceEnabled = false
