//go:build race

package mpi

// poisonReleased makes a race-detector build overwrite every buffer handed
// to Release, so a receiver that reads a payload after releasing it decodes
// garbage at once, whichever rank the scheduler runs first.
const poisonReleased = true
