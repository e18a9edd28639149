//go:build !race

package drivers

const raceEnabled = false
