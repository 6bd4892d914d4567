//go:build race

package health

// See race_off_test.go.
const raceEnabled = true
