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
// paper data sets — the real 9x5 system and both enlarged traces —
// across worker counts and repair strategies, and holds every member's
// objectives, at every generation, to a from-scratch EvaluateFull of its
// allocation, bit for bit; the four-worker run on the same rng stream
// must reach the one-worker front. The engine's parent-row inheritance
// must be invisible on every system/trace shape, not just the unit-test
// instances.
func TestDeltaEvaluationMatchesFullOnDataSets(t *testing.T) {
	if testing.Short() {
		t.Skip("full data-set construction is slow")
	}
	for _, ds := range smallDataSets(t) {
		sess, fresh := ds.Evaluator.NewDeltaSession(), ds.Evaluator.NewContribs()
		for _, repair := range []nsga2.Repair{nsga2.RerankRepair, nsga2.ShuffleRepair} {
			var fronts [][][]float64
			for _, workers := range []int{1, 4} {
				eng, err := nsga2.New(ds.Evaluator, nsga2.Config{
					PopulationSize: 20,
					Workers:        workers,
					Repair:         repair,
				}, rng.NewStream(3, hashName(ds.Name)))
				if err != nil {
					t.Fatal(err)
				}
				for gen := 1; gen <= 6; gen++ {
					eng.Step()
					for i, ind := range eng.Population() {
						ev := sess.EvaluateFull(ind.Alloc, fresh)
						if ind.Objectives[0] != ev.Utility || ind.Objectives[1] != ev.Energy {
							t.Fatalf("%s workers=%d repair=%v gen %d: member %d objectives %v, direct evaluation (%v, %v)",
								ds.Name, workers, repair, gen, i, ind.Objectives, ev.Utility, ev.Energy)
						}
					}
				}
				fronts = append(fronts, eng.FrontPoints())
			}
			if !reflect.DeepEqual(fronts[0], fronts[1]) {
				t.Fatalf("%s repair=%v: four-worker front diverged from the one-worker front", ds.Name, repair)
			}
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
