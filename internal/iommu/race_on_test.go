//go:build race

package iommu

// raceEnabled skips allocation assertions under the race detector, whose
// shadow allocations make testing.AllocsPerRun meaningless.
const raceEnabled = true
