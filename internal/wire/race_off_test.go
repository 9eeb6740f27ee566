//go:build !race

package wire

// raceEnabled reports whether the race detector is compiled in. The
// detector changes allocation accounting and makes sync.Pool drop
// entries at random, so allocation gates skip under it.
const raceEnabled = false
