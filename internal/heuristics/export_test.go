package heuristics

import "tradeoff/internal/sched"

// NaiveMinMin is the quadratic two-stage Min-Min baseline, exported to
// the external oracle tests that check BuildMinMin against it.
func NaiveMinMin(e *sched.Evaluator) *sched.Allocation { return buildTwoStage(e, true) }
