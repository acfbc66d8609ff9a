//go:build !race

package mpi

// poisonReleased is off outside race-detector builds (race.go).
const poisonReleased = false
