//go:build race

package nic

// raceEnabled skips allocation assertions under the race detector, whose
// shadow allocations make testing.AllocsPerRun meaningless.
const raceEnabled = true
