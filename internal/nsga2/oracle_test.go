package nsga2_test

import (
	"fmt"
	"math"
	"testing"

	"tradeoff/internal/data"
	"tradeoff/internal/datagen"
	"tradeoff/internal/experiments"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/nsga2"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
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

// groundTruthBounds returns two bounds every allocation on e respects
// under the paper's execution-only model (no idle power, no dropping):
// no allocation consumes less energy than the sum over tasks of the
// smallest eligible EEC, and none earns more utility than the sum over
// tasks of the TUF at the smallest eligible ETC after arrival, since a
// task completes no earlier and TUFs never rise.
func groundTruthBounds(e *sched.Evaluator) (minEnergy, maxUtility float64) {
	for _, task := range e.Trace().Tasks {
		eec, etc := math.Inf(1), math.Inf(1)
		for _, m := range e.Eligible(task.Type) {
			eec = min(eec, e.EECInstance(task.Type, m))
			etc = min(etc, e.ETCInstance(task.Type, m))
		}
		minEnergy += eec
		maxUtility += task.TUF.Value(etc)
	}
	return minEnergy, maxUtility
}

// TestFrontsRespectGroundTruthBounds holds fronts to the ground-truth
// bounds of groundTruthBounds on data sets 1-3 and on two random
// instances, a small scale data set and a heavily loaded datagen
// instance with its own system, for one population and for a 4-island
// ring, each seeded with the CLI's four heuristics. The Min Energy seed
// attains the energy bound and elitism keeps the lowest-energy point,
// so the front's lowest energy must equal the bound up to summation
// order; no point may exceed the utility bound. Unlike the
// mode-agreement tests, a fault shared by every mode fails here. The
// random instances run 10 generations under -short, else 30.
func TestFrontsRespectGroundTruthBounds(t *testing.T) {
	const rel = 1e-12
	type instance struct {
		name string
		eval *sched.Evaluator
		gens int
	}
	var instances []instance
	for dsNum := 1; dsNum <= 3; dsNum++ {
		ds, err := experiments.ByNumber(dsNum, 1)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, instance{fmt.Sprintf("ds%d", dsNum), ds.Evaluator, 30})
	}
	randomGens := 30
	if testing.Short() {
		randomGens = 10
	}
	scale, err := experiments.ScaleDataSet(600, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	instances = append(instances, instance{"scale600", scale.Evaluator, randomGens})
	cfg := datagen.Default()
	cfg.NewTaskTypes, cfg.SpecialMachineTypes = 12, 2
	cfg.SpecialCounts = []int{2, 1}
	cfg.PowerClasses = datagen.DefaultPowerClasses()
	sys, tr, err := datagen.Instance(data.RealSystem(), cfg, 400, 90, 5)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := sched.NewEvaluator(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	instances = append(instances, instance{"datagen400", gen, randomGens})

	for _, inst := range instances {
		e := inst.eval
		if e.IdlePowerEnabled() || e.AllowDropping {
			t.Fatalf("%s is not on the execution-only model", inst.name)
		}
		minEnergy, maxUtility := groundTruthBounds(e)
		var seeds []*sched.Allocation
		for _, h := range heuristics.All {
			a, err := h.Build(e)
			if err != nil {
				t.Fatal(err)
			}
			seeds = append(seeds, a)
		}
		check := func(t *testing.T, front [][]float64) {
			lowest := math.Inf(1)
			for _, p := range front {
				lowest = min(lowest, p[1])
				if p[0] > maxUtility*(1+rel) {
					t.Errorf("front point earns utility %v above the bound %v", p[0], maxUtility)
				}
			}
			if math.Abs(lowest-minEnergy) > rel*minEnergy {
				t.Errorf("lowest front energy %v J, bound %v J (relative gap %.3g)", lowest, minEnergy, (lowest-minEnergy)/minEnergy)
			}
		}
		engCfg := nsga2.Config{PopulationSize: 20, Seeds: seeds}
		t.Run(inst.name+"/single", func(t *testing.T) {
			eng, err := nsga2.New(e, engCfg, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			eng.Run(inst.gens)
			check(t, eng.FrontPoints())
		})
		t.Run(inst.name+"/ring", func(t *testing.T) {
			is, err := nsga2.NewIslands(e, nsga2.IslandConfig{Islands: 4, MigrationInterval: 5, Engine: engCfg}, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			is.Run(inst.gens)
			check(t, is.FrontPoints())
		})
	}
}
