//go:build !race

package util

// RaceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops items at random, so allocation-count tests skip.
const RaceEnabled = false
