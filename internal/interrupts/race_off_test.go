//go:build !race

package interrupts

const raceEnabled = false
