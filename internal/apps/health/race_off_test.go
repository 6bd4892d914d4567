//go:build !race

package health

// raceEnabled reports whether the race detector is active. The race
// runtime instruments allocation and lets sync.Pool drop a fraction of
// its traffic, so allocation ceilings do not hold under it.
const raceEnabled = false
