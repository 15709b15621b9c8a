package experiments

import (
	"testing"

	"tradeoff/internal/nsga2"
	"tradeoff/internal/rng"
)

// TestCacheMatchesUncachedOnDataSets runs the engine on each of the
// three paper data sets — the real 9x5 system and both enlarged traces —
// across worker counts and repair strategies, and requires every
// member's objectives, at every generation, to equal an uncached direct
// evaluation of its allocation. The inherited parent rows must be
// invisible on every system/trace shape, not just the unit-test
// instances.
func TestCacheMatchesUncachedOnDataSets(t *testing.T) {
	if testing.Short() {
		t.Skip("full data-set construction is slow")
	}
	for _, ds := range smallDataSets(t) {
		sess, fresh := ds.Evaluator.NewDeltaSession(), ds.Evaluator.NewContribs()
		for _, workers := range []int{1, 4} {
			for _, repair := range []nsga2.Repair{nsga2.RerankRepair, nsga2.ShuffleRepair} {
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
			}
		}
	}
}
