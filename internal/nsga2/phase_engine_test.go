package nsga2

import (
	"sync/atomic"
	"testing"

	"tradeoff/internal/obs"
	"tradeoff/internal/rng"
)

// tickClock returns an obs.Clock advancing by step on every reading, so
// every phase bracket records a nonzero duration. Atomic, because a
// shared timer hands the clock to every island goroutine.
func tickClock(step int64) obs.Clock {
	var t atomic.Int64
	return func() int64 {
		return t.Add(step)
	}
}

func TestPhaseTimerDoesNotChangeResults(t *testing.T) {
	eval := newEval(t, 30)
	newEng := func() *Engine {
		eng, err := New(eval, Config{PopulationSize: 12}, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	plain, timed := newEng(), newEng()
	timed.SetObserver(&recorder{})
	timed.SetPhaseTimer(obs.NewPhaseTimer(tickClock(7)))
	plain.Run(20)
	timed.Run(20)
	pp, tp := plain.Population(), timed.Population()
	for i := range pp {
		if pp[i].Rank != tp[i].Rank || pp[i].Crowding != tp[i].Crowding {
			t.Fatalf("individual %d rank/crowding diverged with phase timer attached", i)
		}
		for m := range pp[i].Objectives {
			if pp[i].Objectives[m] != tp[i].Objectives[m] {
				t.Fatalf("individual %d objective %d diverged: %v vs %v",
					i, m, pp[i].Objectives[m], tp[i].Objectives[m])
			}
		}
		for g := range pp[i].Alloc.Machine {
			if pp[i].Alloc.Machine[g] != tp[i].Alloc.Machine[g] || pp[i].Alloc.Order[g] != tp[i].Alloc.Order[g] {
				t.Fatalf("individual %d gene %d diverged", i, g)
			}
		}
	}
}

func TestPhaseTimerBracketsEveryStepPhase(t *testing.T) {
	eng := newEngine(t, 30, Config{PopulationSize: 10}, 23)
	pt := obs.NewPhaseTimer(tickClock(3))
	eng.SetPhaseTimer(pt)
	const gens = 5
	eng.Run(gens)

	cnt, tot := pt.Counts(), pt.Totals()
	// Step brackets select, variation, eval, and sort every generation;
	// variation and eval split the one fused breeding bracket.
	for _, p := range []obs.Phase{obs.PhaseSelect, obs.PhaseVariation, obs.PhaseEval, obs.PhaseSort} {
		if cnt[p] != gens {
			t.Errorf("phase %s bracketed %d times, want %d", p, cnt[p], gens)
		}
		if tot[p] <= 0 {
			t.Errorf("phase %s recorded %dns, want > 0", p, tot[p])
		}
	}
	// A plain engine run never records archive or migration time.
	for _, p := range []obs.Phase{obs.PhaseArchive, obs.PhaseMigration} {
		if cnt[p] != 0 || tot[p] != 0 {
			t.Errorf("phase %s recorded %d brackets / %dns on a plain engine", p, cnt[p], tot[p])
		}
	}
}

// TestPhaseTimerCacheBracketsFollowCacheConfig pins the retired cache
// phases: the engine has no memoization layer left to configure, so
// under every worker count the cache-probe and cache-insert brackets
// stay empty while eval brackets every Step.
func TestPhaseTimerCacheBracketsFollowCacheConfig(t *testing.T) {
	for _, cfg := range []Config{
		{PopulationSize: 10},
		{PopulationSize: 10, Workers: 4},
	} {
		eng := newEngine(t, 20, cfg, 29)
		pt := obs.NewPhaseTimer(tickClock(3))
		eng.SetPhaseTimer(pt)
		eng.Run(3)
		cnt, tot := pt.Counts(), pt.Totals()
		for _, p := range []obs.Phase{obs.PhaseCacheProbe, obs.PhaseCacheInsert} {
			if cnt[p] != 0 || tot[p] != 0 {
				t.Fatalf("%+v: phase %s recorded %d brackets / %dns, want none", cfg, p, cnt[p], tot[p])
			}
		}
		if cnt[obs.PhaseEval] != 3 {
			t.Fatalf("%+v: eval bracketed %d times, want 3", cfg, cnt[obs.PhaseEval])
		}
	}
}

// TestPhaseTimerBreedingSplitStaysWithinWallTime runs the breeding
// fan-out on four workers, each reading the shared clock per pair. The
// engine splits the fused bracket's wall time between variation and
// eval instead of summing worker time, so the phases of a Step never
// add up to more than the clock advanced.
func TestPhaseTimerBreedingSplitStaysWithinWallTime(t *testing.T) {
	eng := newEngine(t, 40, Config{PopulationSize: 16, Workers: 4}, 29)
	clock := tickClock(3)
	pt := obs.NewPhaseTimer(clock)
	eng.SetPhaseTimer(pt)
	before := clock()
	eng.Run(3)
	elapsed := clock() - before
	tot := pt.Totals()
	if tot[obs.PhaseVariation] <= 0 || tot[obs.PhaseEval] <= 0 {
		t.Fatalf("variation %dns, eval %dns, want both > 0", tot[obs.PhaseVariation], tot[obs.PhaseEval])
	}
	var sum int64
	for _, ns := range tot {
		sum += ns
	}
	if sum > elapsed {
		t.Fatalf("phases sum to %dns over %dns of clock", sum, elapsed)
	}
}

func TestPhaseNanosPerGenerationDiffs(t *testing.T) {
	eng := newEngine(t, 30, Config{PopulationSize: 10}, 31)
	rec := &recorder{}
	eng.SetObserver(rec)
	pt := obs.NewPhaseTimer(tickClock(5))
	eng.SetPhaseTimer(pt)
	const gens = 4
	eng.Run(gens)

	if len(rec.gens) != gens {
		t.Fatalf("%d generation events, want %d", len(rec.gens), gens)
	}
	var sum obs.PhaseTotals
	for i, g := range rec.gens {
		// Every generation's breakdown covers the per-step phases and
		// only those: archive and migration never run here.
		for _, p := range []obs.Phase{obs.PhaseSelect, obs.PhaseVariation, obs.PhaseEval, obs.PhaseSort} {
			if g.PhaseNanos[p] <= 0 {
				t.Fatalf("event %d: phase %s %dns, want > 0", i, p, g.PhaseNanos[p])
			}
		}
		if g.PhaseNanos[obs.PhaseArchive] != 0 || g.PhaseNanos[obs.PhaseMigration] != 0 {
			t.Fatalf("event %d: archive/migration time on a plain engine step", i)
		}
		for p := range sum {
			sum[p] += g.PhaseNanos[p]
		}
	}
	// The per-generation diffs partition the timer's cumulative totals.
	if sum != pt.Totals() {
		t.Fatalf("per-generation phase sums %v != timer totals %v", sum, pt.Totals())
	}
}

func TestPhaseNanosZeroWithoutTimer(t *testing.T) {
	eng := newEngine(t, 20, Config{PopulationSize: 10}, 37)
	rec := &recorder{}
	eng.SetObserver(rec)
	eng.Run(2)
	for i, g := range rec.gens {
		if g.PhaseNanos != (obs.PhaseTotals{}) {
			t.Fatalf("event %d: nonzero PhaseNanos without a timer: %v", i, g.PhaseNanos)
		}
		if g.PhaseTotalNanos() != 0 {
			t.Fatalf("event %d: PhaseTotalNanos %d", i, g.PhaseTotalNanos())
		}
	}
}

// TestIslandsPhaseTimerRecordsMigration: each island brackets its
// migration work once per tick, and the engine phases plus migration,
// spread over the islands, stay within the run's wall time — the
// ring-edge wait is not counted on top of the islands' step phases.
// Both subtests reach the one ring runtime: "sync" steps a generation
// at a time with Async unset, "async" makes one Run call with the
// retired Async knob set, which must change nothing.
func TestIslandsPhaseTimerRecordsMigration(t *testing.T) {
	const k, gens = 3, 8
	for _, async := range []bool{false, true} {
		name := "sync"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			is := newIslands(t, 40, IslandConfig{
				Islands:           k,
				MigrationInterval: 4,
				Migrants:          1,
				Async:             async,
				Engine:            Config{PopulationSize: 8},
			}, 7)
			clock := tickClock(2)
			pt := obs.NewPhaseTimer(clock)
			is.SetPhaseTimer(pt)
			before := clock()
			if async {
				is.Run(gens) // two migration ticks
			} else {
				for g := 0; g < gens; g++ {
					is.Step()
				}
			}
			elapsed := clock() - before

			cnt, tot := pt.Counts(), pt.Totals()
			if cnt[obs.PhaseMigration] != 2*k || tot[obs.PhaseMigration] <= 0 {
				t.Fatalf("migration phase %d brackets / %dns, want %d brackets of recorded work",
					cnt[obs.PhaseMigration], tot[obs.PhaseMigration], 2*k)
			}
			// The shared timer aggregates the engine phases of all three
			// islands: 8 generations x 3 islands = 24 step brackets each.
			for _, p := range []obs.Phase{obs.PhaseSelect, obs.PhaseVariation, obs.PhaseEval, obs.PhaseSort} {
				if cnt[p] != gens*k {
					t.Errorf("phase %s bracketed %d times, want %d", p, cnt[p], gens*k)
				}
			}
			var sum int64
			for _, ns := range tot {
				sum += ns
			}
			if sum/k > elapsed {
				t.Fatalf("phases spread over %d islands cover %dns of %dns clock", k, sum/k, elapsed)
			}
		})
	}
}

func TestIslandsPhaseTimerDoesNotChangeResults(t *testing.T) {
	run := func(timed bool) [][]float64 {
		is := newIslands(t, 40, IslandConfig{
			Islands:           2,
			MigrationInterval: 4,
			Migrants:          1,
			Engine:            Config{PopulationSize: 8},
		}, 3)
		if timed {
			is.SetPhaseTimer(obs.NewPhaseTimer(tickClock(11)))
		}
		is.Run(12)
		return is.FrontPoints()
	}
	plain, timed := run(false), run(true)
	if len(plain) != len(timed) {
		t.Fatalf("front sizes diverged: %d vs %d", len(plain), len(timed))
	}
	for i := range plain {
		if plain[i][0] != timed[i][0] || plain[i][1] != timed[i][1] {
			t.Fatalf("front point %d diverged: %v vs %v", i, plain[i], timed[i])
		}
	}
}
