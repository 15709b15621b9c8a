package experiments

import (
	"reflect"
	"testing"

	"tradeoff/internal/nsga2"
	"tradeoff/internal/rng"
)

// smallDataSets builds scaled-down instances of all three paper data
// sets: the real 9x5 system and the enlarged 30x13 system with two trace
// sizes. Full-size traces would make the cross-check needlessly slow;
// the system/trace structure is what varies between the data sets.
func smallDataSets(t *testing.T) []*DataSet {
	t.Helper()
	var out []*DataSet
	for i, build := range []func(uint64) (*DataSet, error){DataSet1, DataSet2, DataSet3} {
		ds, err := build(uint64(50 + i))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ds)
	}
	return out
}

// TestDeltaEvaluationMatchesFullOnDataSets evolves each of the three
// paper data sets with incremental (parent-row inheriting) evaluation
// and holds every final front member to a from-scratch simulation of its
// allocation, bit for bit; a four-worker run on the same rng stream must
// reach the identical front. The incremental path must be invisible on
// every system/trace shape, not just the unit-test instances.
func TestDeltaEvaluationMatchesFullOnDataSets(t *testing.T) {
	if testing.Short() {
		t.Skip("full data-set construction is slow")
	}
	for _, ds := range smallDataSets(t) {
		run := func(workers int) *nsga2.Engine {
			eng, err := nsga2.New(ds.Evaluator, nsga2.Config{
				PopulationSize: 20,
				Workers:        workers,
			}, rng.NewStream(3, hashName(ds.Name)))
			if err != nil {
				t.Fatal(err)
			}
			eng.Run(6)
			return eng
		}
		eng := run(1)
		sess, fresh := ds.Evaluator.NewDeltaSession(), ds.Evaluator.NewContribs()
		for i, ind := range eng.ParetoFront() {
			ev := sess.EvaluateFull(ind.Alloc, fresh)
			if ind.Objectives[0] != ev.Utility || ind.Objectives[1] != ev.Energy {
				t.Fatalf("%s: front member %d objectives %v, direct evaluation (%v, %v)",
					ds.Name, i, ind.Objectives, ev.Utility, ev.Energy)
			}
		}
		if !reflect.DeepEqual(eng.FrontPoints(), run(4).FrontPoints()) {
			t.Fatalf("%s: four-worker front diverged from the one-worker front", ds.Name)
		}
	}
}

// TestRunRepeatsWorkerInvariance checks that the parallel variant × run
// fan-out reproduces the serial sweep exactly for every worker count.
func TestRunRepeatsWorkerInvariance(t *testing.T) {
	ds, err := DataSet1(22)
	if err != nil {
		t.Fatal(err)
	}
	base := RunConfig{PopulationSize: 10, Checkpoints: []int{8}, Seed: 23}
	run := func(workers int) *RepeatResult {
		cfg := base
		cfg.Workers = workers
		res, err := RunRepeats(ds, cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 7} {
		if got := run(workers); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d: RunRepeats diverged from serial sweep", workers)
		}
	}
}
