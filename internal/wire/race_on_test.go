//go:build race

package wire

// raceEnabled: see race_off_test.go.
const raceEnabled = true
