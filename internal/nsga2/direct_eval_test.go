package nsga2

import (
	"fmt"
	"testing"

	"tradeoff/internal/heuristics"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// requireDirectEvaluation is the engine's direct-evaluation oracle:
// every population member's objectives and per-machine contribution
// rows (including the bucket fingerprints later offspring inherit by)
// must equal a fresh, uncached DeltaSession.EvaluateFull of its
// allocation, bit for bit. Unlike the mode-agreement tests, it checks
// each member against the scheduler's own definition of its fitness, so
// parent-row inheritance, the fused breed-and-evaluate pipeline and
// every re-evaluation path (seeds, injection, restore) are each held to
// ground truth.
func requireDirectEvaluation(t *testing.T, label string, e *Engine) {
	t.Helper()
	sess, fresh := e.eval.NewDeltaSession(), e.eval.NewContribs()
	for i := range e.pop {
		ind := &e.pop[i]
		ev := sess.EvaluateFull(ind.Clone().Alloc, fresh)
		if ind.Objectives[0] != ev.Utility || ind.Objectives[1] != ev.Energy {
			t.Fatalf("%s: member %d objectives %v, direct evaluation (%v, %v)",
				label, i, ind.Objectives, ev.Utility, ev.Energy)
		}
		if !ind.contrib.Equal(fresh) {
			t.Fatalf("%s: member %d contribution rows differ from direct evaluation", label, i)
		}
	}
}

// requireScalarEvaluation holds every population member's objectives to
// a test-side per-task walk of the schedule that shares no code with the
// scheduler's kernel: it builds each machine's queue from the genotype,
// walks it with the TUF's own Value (not the compiled table or the
// kernel's task record) and the evaluator's ETC/EEC accessors, and sums
// per-machine subtotals in machine order, the accumulation order the
// kernel promises. The result must match bit for bit. Idle power is
// not modelled, so the evaluator must have it off.
func requireScalarEvaluation(t *testing.T, label string, e *Engine) {
	t.Helper()
	ev := e.eval
	if ev.IdlePowerEnabled() {
		t.Fatalf("%s: the scalar walk does not model idle power", label)
	}
	tasks := ev.Trace().Tasks
	byOrder := make([]int, len(tasks))
	queues := make([][]int, ev.NumMachines())
	for i := range e.pop {
		ind := &e.pop[i]
		alloc := ind.Clone().Alloc
		for g, o := range alloc.Order {
			byOrder[o] = g
		}
		for m := range queues {
			queues[m] = queues[m][:0]
		}
		for _, g := range byOrder {
			if m := alloc.Machine[g]; m >= 0 {
				queues[m] = append(queues[m], g)
			}
		}
		var util, energy float64
		for m, q := range queues {
			var ready, u, en float64
			for _, g := range q {
				task := &tasks[g]
				completion := max(ready, task.Arrival) + ev.ETCInstance(task.Type, m)
				ready = completion
				u += task.TUF.Value(completion - task.Arrival)
				en += ev.EECInstance(task.Type, m)
			}
			util += u
			energy += en
		}
		if ind.Objectives[0] != util || ind.Objectives[1] != energy {
			t.Fatalf("%s: member %d objectives %v, scalar walk (%v, %v)",
				label, i, ind.Objectives, util, energy)
		}
	}
}

// stepWithoutInheritance steps the engine with every parent's
// contribution rows invalidated, so each child takes Prepare's
// no-parent path and simulates every machine: the engine-level
// equivalent of evaluating offspring from scratch. Survivors keep their
// invalidated rows through Step, so they are re-evaluated afterwards to
// leave the engine as an ordinary Step would.
func stepWithoutInheritance(t *testing.T, e *Engine) {
	t.Helper()
	inherited := func() (n uint64) {
		for _, s := range e.sessions {
			n += s.Stats().MachinesInherited
		}
		return n
	}
	for i := range e.pop {
		e.pop[i].contrib.Invalidate()
	}
	before := inherited()
	e.Step()
	if n := inherited() - before; n != 0 {
		t.Fatalf("step without inheritance inherited %d machine rows", n)
	}
	sess := e.eval.NewDeltaSession()
	for i := range e.pop {
		if ind := &e.pop[i]; !ind.contrib.Valid() {
			sess.EvaluateSlots(ind.seq, ind.contrib)
		}
	}
}

// TestCacheEngineMatchesUncached holds every generation of the engine to
// the uncached direct evaluation across repair strategies, selection
// rules, worker counts and seeded populations: the parent rows each
// child inherits are the only memo left, and they must never show
// through. The full-eval-mode row steps without inheritance, so every
// child is simulated from scratch; the scalar-kernel row also holds
// each member to the test-side per-task walk.
func TestCacheEngineMatchesUncached(t *testing.T) {
	cases := []struct {
		name      string
		tasks     int
		cfg       Config
		seed      bool
		noInherit bool
		scalar    bool
	}{
		{name: "shuffle-repair", tasks: 60, cfg: Config{PopulationSize: 20, Repair: ShuffleRepair}},
		{name: "tournament", tasks: 60, cfg: Config{PopulationSize: 20, Selection: TournamentSelection}},
		{name: "workers", tasks: 60, cfg: Config{PopulationSize: 20, Workers: 4}},
		{name: "seeded", tasks: 80, cfg: Config{PopulationSize: 16}, seed: true},
		{name: "full-eval-mode", tasks: 40, cfg: Config{PopulationSize: 12}, noInherit: true},
		{name: "high-mutation", tasks: 40, cfg: Config{PopulationSize: 12, MutationRate: 0.9}},
		{name: "scalar-kernel", tasks: 40, cfg: Config{PopulationSize: 12}, scalar: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEval(t, tc.tasks)
			cfg := tc.cfg
			if tc.seed {
				cfg.Seeds = []*sched.Allocation{heuristics.BuildMinEnergy(e), heuristics.BuildMinMin(e)}
			}
			eng, err := New(e, cfg, rng.New(77))
			if err != nil {
				t.Fatal(err)
			}
			check := func(label string) {
				requireDirectEvaluation(t, label, eng)
				if tc.scalar {
					requireScalarEvaluation(t, label, eng)
				}
			}
			check("gen0")
			for gen := 1; gen <= 12; gen++ {
				if tc.noInherit {
					stepWithoutInheritance(t, eng)
				} else {
					eng.Step()
				}
				check(fmt.Sprintf("gen%d", gen))
			}
		})
	}
}

// TestCacheEngineMatchesUncachedWithInject covers genotypes entering the
// population mid-run: injected individuals are evaluated in place by the
// per-worker sessions and must match the direct evaluation like bred
// ones, as must everything bred from them afterwards.
func TestCacheEngineMatchesUncachedWithInject(t *testing.T) {
	eng := newEngine(t, 50, Config{PopulationSize: 16, Workers: 4}, 5)
	eng.Run(5)
	inject := []Individual{
		{Alloc: eng.eval.RandomAllocation(rng.New(99))},
		{Alloc: heuristics.BuildMinEnergy(eng.eval)},
	}
	if err := eng.Inject(inject); err != nil {
		t.Fatal(err)
	}
	requireDirectEvaluation(t, "inject", eng)
	for gen := 0; gen < 8; gen++ {
		eng.Step()
		requireDirectEvaluation(t, "post-inject", eng)
	}
}

// TestCacheEngineMatchesUncachedAfterRestore covers snapshot/restore: a
// population restored into an engine with a different seed and worker
// count is re-evaluated from scratch and must continue to match the
// direct evaluation.
func TestCacheEngineMatchesUncachedAfterRestore(t *testing.T) {
	src := newEngine(t, 40, Config{PopulationSize: 12}, 8)
	src.Run(4)
	eng := newEngine(t, 40, Config{PopulationSize: 12, Workers: 4}, 9)
	if err := eng.Restore(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	requireDirectEvaluation(t, "restore", eng)
	for gen := 0; gen < 8; gen++ {
		eng.Step()
		requireDirectEvaluation(t, "post-restore", eng)
	}
}

// TestMachineCacheBitIdentical pins the kernel at engine level: under
// one worker and four, every generation's members must match the
// test-side per-task scalar walk bit for bit.
func TestMachineCacheBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		eng := newEngine(t, 70, Config{PopulationSize: 16, Workers: workers}, 5)
		for g := 0; g < 12; g++ {
			eng.Step()
			requireScalarEvaluation(t, fmt.Sprintf("kernel/workers%d/gen%d", workers, g+1), eng)
		}
	}
}

// FuzzCacheEngine drives arbitrary configurations — repair, selection,
// inheritance on or off, worker count and generation count — through
// the direct-evaluation oracle after every Step.
func FuzzCacheEngine(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(10), false, false, false, uint8(3), uint8(1))
	f.Add(uint64(9), uint8(90), uint8(8), true, true, false, uint8(5), uint8(4))
	f.Add(uint64(4), uint8(20), uint8(6), false, true, true, uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, tasksRaw, popRaw uint8, shuffle, tournament, full bool, gens, workersRaw uint8) {
		tasks := 2 + int(tasksRaw)%100
		pop := 2 * (1 + int(popRaw)%10)
		cfg := Config{PopulationSize: pop, Workers: 1 + int(workersRaw)%4}
		if shuffle {
			cfg.Repair = ShuffleRepair
		}
		if tournament {
			cfg.Selection = TournamentSelection
		}
		eng := newEngine(t, tasks, cfg, seed|1)
		for g := 0; g < int(gens)%10+1; g++ {
			if full {
				stepWithoutInheritance(t, eng)
			} else {
				eng.Step()
			}
			requireDirectEvaluation(t, "fuzz", eng)
		}
	})
}

// FuzzMachineCacheSnapshot drives snapshot/restore through arbitrary
// configurations: an engine snapshotted mid-run and restored into a
// fresh engine with a different seed — and, with full set, stepped
// without parent-row inheritance — must match the direct evaluation on
// restore and finish bit-identical to the uninterrupted run.
func FuzzMachineCacheSnapshot(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(10), uint8(3), uint8(1), false)
	f.Add(uint64(9), uint8(80), uint8(8), uint8(5), uint8(4), true)
	f.Add(uint64(4), uint8(20), uint8(6), uint8(7), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed uint64, tasksRaw, popRaw, gensRaw, workersRaw uint8, full bool) {
		tasks := 2 + int(tasksRaw)%100
		pop := 2 * (1 + int(popRaw)%10)
		gens := int(gensRaw)%8 + 2
		half := gens / 2
		cfg := Config{PopulationSize: pop, Workers: 1 + int(workersRaw)%4}

		straight := newEngine(t, tasks, cfg, seed|1)
		straight.Run(gens)

		interrupted := newEngine(t, tasks, cfg, seed|1)
		interrupted.Run(half)
		raw, err := EncodeSnapshot(interrupted.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		snap, err := DecodeSnapshot(raw)
		if err != nil {
			t.Fatal(err)
		}
		resumed := newEngine(t, tasks, cfg, seed^0xdead)
		if err := resumed.Restore(snap); err != nil {
			t.Fatal(err)
		}
		requireDirectEvaluation(t, "restore", resumed)
		// Stepping the resumed engine without inheritance may not change
		// the population the run converges to.
		for g := half; g < gens; g++ {
			if full {
				stepWithoutInheritance(t, resumed)
			} else {
				resumed.Step()
			}
		}
		comparePopulations(t, "snapshot", straight, resumed)
		requireDirectEvaluation(t, "resumed", resumed)
	})
}
