//go:build race

package dist

// raceEnabled reports whether the tests run under the race detector,
// where sync.Pool drops a quarter of its puts at random, so the
// allocation count of a path through the evaluator's pooled scratch
// (Inject validates migrants there) does not repeat.
const raceEnabled = true
