//go:build race

package experiment

// raceEnabled reports a -race build, whose sync.Pool drops pooled values at
// random, so allocation counts measure the detector, not the code.
const raceEnabled = true
