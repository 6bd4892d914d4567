//go:build race

package all

// See race_off_test.go.
const raceEnabled = true
