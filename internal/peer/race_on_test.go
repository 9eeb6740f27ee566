//go:build race

package peer

// raceEnabled: see race_off_test.go.
const raceEnabled = true
