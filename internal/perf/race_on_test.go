//go:build race

package perf

// See race_off_test.go.
const raceEnabled = true
