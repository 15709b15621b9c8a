package sched_test

import (
	"fmt"
	"testing"

	"tradeoff/internal/experiments"
	"tradeoff/internal/sched"
	"tradeoff/internal/utility"
)

// TestDataSetSharingInvisible runs the sharing oracle on data sets 1–3:
// their generated traces share one function per distinct TUF, and an
// evaluator over them must match one over their unshared copies bit
// for bit.
func TestDataSetSharingInvisible(t *testing.T) {
	for n := 1; n <= 3; n++ {
		t.Run(fmt.Sprintf("dataset%d", n), func(t *testing.T) {
			ds, err := experiments.ByNumber(n, 1)
			if err != nil {
				t.Fatal(err)
			}
			tiers := sched.RequireShareInvisible(t, ds.System, ds.Trace, false, uint64(n))
			t.Logf("completions of shared functions by tier %v", tiers[1:])
			if tiers[1] == 0 || tiers[2] == 0 || tiers[3] == 0 {
				t.Fatalf("completions of shared functions by tier %v, want tiers 1–3", tiers[1:])
			}
		})
	}
}

// TestScaleEvaluatorFootprint: on the 10k-task scale instance the
// evaluator compiles one table entry and one function record per
// distinct TUF pointer of the trace, the 810 functions that 3 priority
// classes, 3 urgency levels and 3 shapes make for each of 30 task
// types.
func TestScaleEvaluatorFootprint(t *testing.T) {
	ds, err := experiments.ScaleDataSet(10000, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[*utility.Function]bool)
	for _, task := range ds.Trace.Tasks {
		seen[task.TUF] = true
	}
	e, err := sched.NewEvaluator(ds.System, ds.Trace)
	if err != nil {
		t.Fatal(err)
	}
	entries, records := sched.CompiledFuncs(e)
	if len(seen) != 810 || entries != len(seen) || records != len(seen) {
		t.Fatalf("%d distinct TUFs over %d tasks, %d table entries, %d function records; want 810 of each", len(seen), ds.Trace.NumTasks(), entries, records)
	}
}
