//go:build race

package tradeoff_test

// raceEnabled reports whether the tests run under the race detector,
// where sync.Pool drops a quarter of its puts at random, so the
// allocation count of a pooled path does not repeat.
const raceEnabled = true
