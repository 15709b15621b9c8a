package nsga2

import (
	"testing"

	"tradeoff/internal/moea"
	"tradeoff/internal/obs"
	"tradeoff/internal/rng"
)

// recorder deep-copies every event: GenerationStats hands out borrowed
// buffers that are only valid during the callback.
type recorder struct {
	gens       []obs.GenerationStats
	fronts     [][][]float64
	migrations []obs.MigrationEvent
	runs       []obs.RunEvent
}

func (r *recorder) ObserveGeneration(g obs.GenerationStats) {
	front := make([][]float64, len(g.Front))
	for i, p := range g.Front {
		front[i] = append([]float64(nil), p...)
	}
	g.Front = nil
	r.gens = append(r.gens, g)
	r.fronts = append(r.fronts, front)
}

func (r *recorder) ObserveMigration(m obs.MigrationEvent) { r.migrations = append(r.migrations, m) }

func (r *recorder) ObserveRun(e obs.RunEvent) { r.runs = append(r.runs, e) }

func TestObserverGenerationEvents(t *testing.T) {
	eng := newEngine(t, 30, Config{PopulationSize: 10}, 23)
	rec := &recorder{}
	eng.SetObserver(rec)
	eng.Run(5)

	if len(rec.gens) != 5 {
		t.Fatalf("%d generation events, want 5", len(rec.gens))
	}
	machines := eng.eval.NumMachines()
	for i, g := range rec.gens {
		if g.Generation != i+1 {
			t.Fatalf("event %d: generation %d, want %d", i, g.Generation, i+1)
		}
		if g.Population != 10 {
			t.Fatalf("event %d: population %d", i, g.Population)
		}
		// Every offspring is evaluated exactly once, fully or by delta
		// inheritance.
		if g.FullEvals+g.DeltaEvals != 10 {
			t.Fatalf("event %d: %d full + %d delta, want 10 total", i, g.FullEvals, g.DeltaEvals)
		}
		if g.CacheHits != 0 || g.CacheMisses != 0 || g.MachineCacheHits != 0 || g.MachineCacheMisses != 0 {
			t.Fatalf("event %d: retired cache counters %d/%d/%d/%d, want 0",
				i, g.CacheHits, g.CacheMisses, g.MachineCacheHits, g.MachineCacheMisses)
		}
		if g.ArenaSlots <= 0 || g.ArenaInUse <= 0 || g.ArenaInUse > g.ArenaSlots {
			t.Fatalf("event %d: arena %d in use of %d slots", i, g.ArenaInUse, g.ArenaSlots)
		}
		// Each evaluation accounts for every machine: simulated, or
		// inherited from the parent by fingerprint match.
		wantMachines := (g.FullEvals + g.DeltaEvals) * machines
		if g.MachinesSimulated+g.MachinesInherited != wantMachines {
			t.Fatalf("event %d: %d simulated + %d inherited machines, want %d",
				i, g.MachinesSimulated, g.MachinesInherited, wantMachines)
		}
		if g.TypedTasks != 0 || g.TypedRuns != 0 {
			t.Fatalf("event %d: retired typed counters %d/%d, want 0", i, g.TypedTasks, g.TypedRuns)
		}
		if g.NumMachines != machines {
			t.Fatalf("event %d: NumMachines %d, want %d", i, g.NumMachines, machines)
		}
		front := rec.fronts[i]
		if len(front) == 0 || g.Indicators.FrontSize != len(front) {
			t.Fatalf("event %d: front size %d vs %d points", i, g.Indicators.FrontSize, len(front))
		}
		// Front sorted by descending utility (the first objective is
		// maximized), ties by ascending energy.
		for j := 1; j < len(front); j++ {
			if front[j][0] > front[j-1][0] {
				t.Fatalf("event %d: front not sorted by descending utility at %d", i, j)
			}
		}
		if g.Indicators.Hypervolume < 0 {
			t.Fatalf("event %d: negative hypervolume", i)
		}
	}
	// The kernel is primed on the pre-attach front, so every epsilon is a
	// real front-to-front measurement; hypervolume never decreases under
	// elitist survivor selection with a fixed auto reference.
	for i := 1; i < len(rec.gens); i++ {
		if rec.gens[i].Indicators.Hypervolume < rec.gens[i-1].Indicators.Hypervolume {
			t.Fatalf("hypervolume decreased at event %d: %v -> %v",
				i, rec.gens[i-1].Indicators.Hypervolume, rec.gens[i].Indicators.Hypervolume)
		}
	}
}

func TestObserverDoesNotChangeResults(t *testing.T) {
	eval := newEval(t, 30)
	newEng := func() *Engine {
		eng, err := New(eval, Config{PopulationSize: 12}, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	plain, observed := newEng(), newEng()
	observed.SetObserver(&recorder{})
	plain.Run(20)
	observed.Run(20)
	pp, op := plain.Population(), observed.Population()
	for i := range pp {
		if pp[i].Rank != op[i].Rank || pp[i].Crowding != op[i].Crowding {
			t.Fatalf("individual %d rank/crowding diverged with observer attached", i)
		}
		for m := range pp[i].Objectives {
			if pp[i].Objectives[m] != op[i].Objectives[m] {
				t.Fatalf("individual %d objective %d diverged: %v vs %v",
					i, m, pp[i].Objectives[m], op[i].Objectives[m])
			}
		}
		for g := range pp[i].Alloc.Machine {
			if pp[i].Alloc.Machine[g] != op[i].Alloc.Machine[g] || pp[i].Alloc.Order[g] != op[i].Alloc.Order[g] {
				t.Fatalf("individual %d gene %d diverged", i, g)
			}
		}
	}
}

func TestSetIndicatorReference(t *testing.T) {
	eng := newEngine(t, 20, Config{PopulationSize: 10}, 31)
	rec := &recorder{}
	eng.SetObserver(rec)
	ref := []float64{0, 1e9} // utility floor 0, generous energy ceiling
	eng.SetIndicatorReference(ref)
	eng.Run(1)
	if len(rec.gens) != 1 {
		t.Fatalf("%d events, want 1", len(rec.gens))
	}
	sp := moea.UtilityEnergySpace()
	want := sp.Hypervolume2D(rec.fronts[0], ref)
	if got := rec.gens[0].Indicators.Hypervolume; got != want {
		t.Fatalf("hypervolume %v under explicit reference, want %v", got, want)
	}
}

func TestObserverDetach(t *testing.T) {
	eng := newEngine(t, 20, Config{PopulationSize: 10}, 37)
	rec := &recorder{}
	eng.SetObserver(rec)
	eng.Run(2)
	eng.SetObserver(nil)
	eng.Run(2)
	if len(rec.gens) != 2 {
		t.Fatalf("%d events after detach, want 2", len(rec.gens))
	}
}

// TestRunCheckpointsGenerationZero pins the checkpoint contract's edge:
// checkpoint 0 on a fresh engine reports the initial population's front
// without stepping, and negative checkpoints are rejected.
func TestRunCheckpointsGenerationZero(t *testing.T) {
	eng := newEngine(t, 30, Config{PopulationSize: 10}, 41)
	var gens []int
	var sizes []int
	err := eng.RunCheckpoints([]int{0, 3}, func(g int, front []Individual) {
		gens = append(gens, g)
		sizes = append(sizes, len(front))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0] != 0 || gens[1] != 3 {
		t.Fatalf("checkpoint generations %v, want [0 3]", gens)
	}
	if sizes[0] == 0 {
		t.Fatal("generation-0 checkpoint reported an empty front")
	}
	if eng.Generation() != 3 {
		t.Fatalf("engine at generation %d after checkpoints, want 3", eng.Generation())
	}
	if err := eng.RunCheckpoints([]int{-1}, func(int, []Individual) {}); err == nil {
		t.Fatal("negative checkpoint accepted")
	}
}

// TestSnapshotRestoreWithObserver checks that telemetry resumes cleanly
// across a snapshot/restore cycle: generation numbers continue from the
// snapshot and the restore's own re-evaluation work is not billed to
// the first post-restore generation.
func TestSnapshotRestoreWithObserver(t *testing.T) {
	eval := newEval(t, 30)
	engA, err := New(eval, Config{PopulationSize: 10}, rng.New(53))
	if err != nil {
		t.Fatal(err)
	}
	recA := &recorder{}
	engA.SetObserver(recA)
	engA.Run(3)
	snap := engA.Snapshot()

	engB, err := New(eval, Config{PopulationSize: 10}, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	recB := &recorder{}
	engB.SetObserver(recB)
	if err := engB.Restore(snap); err != nil {
		t.Fatal(err)
	}
	engB.Run(2)

	if len(recB.gens) != 2 {
		t.Fatalf("%d post-restore events, want 2", len(recB.gens))
	}
	for i, g := range recB.gens {
		if g.Generation != 4+i {
			t.Fatalf("post-restore event %d: generation %d, want %d", i, g.Generation, 4+i)
		}
		if g.FullEvals+g.DeltaEvals != 10 {
			t.Fatalf("post-restore event %d: %d full + %d delta evals, want 10 — restore work leaked into the generation",
				i, g.FullEvals, g.DeltaEvals)
		}
	}

	// The restored engine continues the original run bit for bit, so its
	// events must match a reference engine that never snapshotted.
	engC, err := New(eval, Config{PopulationSize: 10}, rng.New(53))
	if err != nil {
		t.Fatal(err)
	}
	recC := &recorder{}
	engC.SetObserver(recC)
	engC.Run(5)
	for i := range recB.fronts {
		want := recC.fronts[3+i]
		got := recB.fronts[i]
		if len(got) != len(want) {
			t.Fatalf("post-restore front %d: %d points vs %d in uninterrupted run", i, len(got), len(want))
		}
		for j := range got {
			if got[j][0] != want[j][0] || got[j][1] != want[j][1] {
				t.Fatalf("post-restore front %d point %d: %v vs %v", i, j, got[j], want[j])
			}
		}
	}
}
