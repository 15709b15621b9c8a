//go:build race

package nsga2

// raceEnabled reports whether the tests run under the race detector,
// where sync.Pool drops a quarter of its puts at random, so the
// allocation count of a path through Validate's pooled scratch does not
// repeat.
const raceEnabled = true
