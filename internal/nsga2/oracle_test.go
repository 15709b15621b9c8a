package nsga2_test

import (
	"fmt"
	"testing"

	"tradeoff/internal/experiments"
	"tradeoff/internal/nsga2"
	"tradeoff/internal/rng"
)

// TestStepMatchesDirectEvaluation runs the direct-evaluation oracle
// after every Step on data sets 1-3 under one and four workers, stepping
// normally ("delta": children inherit unchanged parent rows) and with
// every parent row invalidated first ("full": every child machine is
// simulated). The operator, seeding, injection and restore variants run
// on a unit-test instance in TestCacheEngineMatchesUncached and its
// siblings.
func TestStepMatchesDirectEvaluation(t *testing.T) {
	for dsNum := 1; dsNum <= 3; dsNum++ {
		ds, err := experiments.ByNumber(dsNum, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			for _, mode := range []string{"delta", "full"} {
				t.Run(fmt.Sprintf("ds%d/workers%d/%s", dsNum, workers, mode), func(t *testing.T) {
					cfg := nsga2.Config{PopulationSize: 12, Workers: workers}
					eng, err := nsga2.New(ds.Evaluator, cfg, rng.New(41))
					if err != nil {
						t.Fatal(err)
					}
					nsga2.RequireDirectEvaluation(t, "gen0", eng)
					for gen := 1; gen <= 4; gen++ {
						if mode == "full" {
							nsga2.StepWithoutInheritance(t, eng)
						} else {
							eng.Step()
						}
						nsga2.RequireDirectEvaluation(t, fmt.Sprintf("gen%d", gen), eng)
					}
				})
			}
		}
	}
}
