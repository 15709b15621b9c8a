package nsga2

import (
	"fmt"
	"testing"

	"tradeoff/internal/heuristics"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// comparePopulations fails unless the two engines hold bitwise-identical
// populations: genotypes, objectives, ranks, and crowding distances.
func comparePopulations(t *testing.T, label string, a, b *Engine) {
	t.Helper()
	if len(a.pop) != len(b.pop) {
		t.Fatalf("%s: population sizes %d vs %d", label, len(a.pop), len(b.pop))
	}
	for i := range a.pop {
		ia, ib := &a.pop[i], &b.pop[i]
		for r := range ia.seq {
			if ia.seq[r] != ib.seq[r] {
				t.Fatalf("%s: individual %d execution slot %d diverged", label, i, r)
			}
		}
		for d := range ia.Objectives {
			if ia.Objectives[d] != ib.Objectives[d] {
				t.Fatalf("%s: individual %d objective %d: %v vs %v",
					label, i, d, ia.Objectives[d], ib.Objectives[d])
			}
		}
		if ia.Rank != ib.Rank || ia.Crowding != ib.Crowding {
			t.Fatalf("%s: individual %d rank/crowding diverged", label, i)
		}
	}
}

// TestDeltaEngineMatchesFullEngine is the engine-level bit-identity
// property: an engine whose children inherit unchanged parent rows and a
// one-worker engine stepped without inheritance (every child machine
// simulated; see stepWithoutInheritance), driven by the same rng seed,
// must produce identical populations generation by generation, and the
// inheriting engine's members must equal their direct evaluation —
// across repair strategies, selection rules, worker counts, seeded
// populations, and idle-power evaluators.
func TestDeltaEngineMatchesFullEngine(t *testing.T) {
	cases := []struct {
		name  string
		tasks int
		cfg   Config
		idle  bool
		seed  bool
	}{
		{name: "base", tasks: 60, cfg: Config{PopulationSize: 20}},
		{name: "shuffle-repair", tasks: 60, cfg: Config{PopulationSize: 20, Repair: ShuffleRepair}},
		{name: "tournament", tasks: 60, cfg: Config{PopulationSize: 20, Selection: TournamentSelection}},
		{name: "workers", tasks: 60, cfg: Config{PopulationSize: 20, Workers: 4}},
		{name: "idle-power", tasks: 60, cfg: Config{PopulationSize: 20}, idle: true},
		{name: "seeded", tasks: 80, cfg: Config{PopulationSize: 16}, seed: true},
		{name: "high-mutation", tasks: 40, cfg: Config{PopulationSize: 12, MutationRate: 0.9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mkEngine := func(workers int) *Engine {
				e := newEval(t, tc.tasks)
				if tc.idle {
					watts := make([]float64, e.System().NumMachineTypes())
					for i := range watts {
						watts[i] = 3 + float64(i)
					}
					if err := e.SetIdlePower(watts); err != nil {
						t.Fatal(err)
					}
				}
				cfg := tc.cfg
				cfg.Workers = workers
				if tc.seed {
					cfg.Seeds = []*sched.Allocation{heuristics.BuildMinEnergy(e)}
				}
				eng, err := New(e, cfg, rng.New(77))
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			workers := tc.cfg.Workers
			if workers == 0 {
				workers = 1
			}
			delta := mkEngine(workers)
			full := mkEngine(1)
			comparePopulations(t, tc.name+"/gen0", delta, full)
			for gen := 1; gen <= 12; gen++ {
				delta.Step()
				stepWithoutInheritance(t, full)
				comparePopulations(t, tc.name, delta, full)
				requireDirectEvaluation(t, fmt.Sprintf("%s/gen%d", tc.name, gen), delta)
			}
		})
	}
}

// TestDeltaEngineMatchesFullWithInject checks the parent-cache fallback
// for individuals entering the population mid-run.
func TestDeltaEngineMatchesFullWithInject(t *testing.T) {
	delta := newEngine(t, 50, Config{PopulationSize: 16}, 5)
	full := newEngine(t, 50, Config{PopulationSize: 16}, 5)
	delta.Run(5)
	full.Run(5)
	inject := []Individual{
		{Alloc: delta.eval.RandomAllocation(rng.New(99))},
		{Alloc: heuristics.BuildMinEnergy(delta.eval)},
	}
	if err := delta.Inject(inject); err != nil {
		t.Fatal(err)
	}
	if err := full.Inject(inject); err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 8; gen++ {
		delta.Step()
		stepWithoutInheritance(t, full)
		comparePopulations(t, "post-inject", delta, full)
		requireDirectEvaluation(t, "post-inject", delta)
	}
}

// TestDeltaEngineMatchesFullAfterRestore checks the snapshot path: a
// restored population is fully re-evaluated, and continuing with
// inheritance must match a continuation stepped without it.
func TestDeltaEngineMatchesFullAfterRestore(t *testing.T) {
	src := newEngine(t, 40, Config{PopulationSize: 12}, 8)
	src.Run(4)
	snap := src.Snapshot()

	delta := newEngine(t, 40, Config{PopulationSize: 12}, 8)
	full := newEngine(t, 40, Config{PopulationSize: 12}, 8)
	if err := delta.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := full.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 8; gen++ {
		delta.Step()
		stepWithoutInheritance(t, full)
		comparePopulations(t, "post-restore", delta, full)
		requireDirectEvaluation(t, "post-restore", delta)
	}
}

// FuzzDeltaEngine drives arbitrary engine configurations through the
// inheriting-vs-non-inheriting population equality check.
func FuzzDeltaEngine(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(10), false, false, uint8(3))
	f.Add(uint64(9), uint8(90), uint8(8), true, true, uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, tasksRaw, popRaw uint8, shuffle, tournament bool, gens uint8) {
		tasks := 2 + int(tasksRaw)%100
		pop := 2 * (1 + int(popRaw)%10)
		cfg := Config{PopulationSize: pop}
		if shuffle {
			cfg.Repair = ShuffleRepair
		}
		if tournament {
			cfg.Selection = TournamentSelection
		}
		delta := newEngine(t, tasks, cfg, seed|1)
		full := newEngine(t, tasks, cfg, seed|1)
		for g := 0; g < int(gens)%10+1; g++ {
			delta.Step()
			stepWithoutInheritance(t, full)
		}
		comparePopulations(t, "fuzz", delta, full)
		requireDirectEvaluation(t, "fuzz", delta)
	})
}
