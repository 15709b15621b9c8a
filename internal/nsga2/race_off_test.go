//go:build !race

package nsga2

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
