//go:build !race

package monitor

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
