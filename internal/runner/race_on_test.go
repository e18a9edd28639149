//go:build race

package runner

// raceEnabled skips the full-suite pass and the allocation pin under the
// race detector: the suite at ~10x race overhead would flirt with the
// package test timeout, the determinism subset exercises the same pool
// machinery, and the detector's shadow memory allocates.
const raceEnabled = true
