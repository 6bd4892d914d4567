//go:build !race

package perf

// raceEnabled reports whether the race detector is active. The
// allocation ceilings do not hold under it: sync.Pool deliberately
// drops a fraction of Put/Get pairs when the detector is on, so
// cross-region recycling is probabilistic there.
const raceEnabled = false
