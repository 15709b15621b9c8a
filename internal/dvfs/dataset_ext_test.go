package dvfs_test

import (
	"testing"

	"tradeoff/internal/dvfs"
	"tradeoff/internal/experiments"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// TestEvaluateMatchesWalkDataSet3 runs the walk oracle on data set 3,
// whose special-purpose machines run only some task types: a
// max-utility allocation and random ones, at random per-task P-states,
// with idle power off and on.
func TestEvaluateMatchesWalkDataSet3(t *testing.T) {
	ds, err := experiments.ByNumber(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sched.NewEvaluator(ds.System, ds.Trace)
	if err != nil {
		t.Fatal(err)
	}
	e, err := dvfs.NewEvaluator(base, dvfs.DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(8)
	allocs := []*sched.Allocation{heuristics.BuildMaxUtility(base), base.RandomAllocation(src), base.RandomAllocation(src)}
	dvfs.RequireMatchesWalk(t, e, allocs, 4, src)
}
