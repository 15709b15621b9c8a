package nsga2

import (
	"testing"

	"tradeoff/internal/heuristics"
	"tradeoff/internal/moea"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

func newIslands(t testing.TB, tasks int, cfg IslandConfig, seed uint64) *Islands {
	t.Helper()
	is, err := NewIslands(newEval(t, tasks), cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return is
}

func TestIslandsConfigValidation(t *testing.T) {
	e := newEval(t, 10)
	bad := []IslandConfig{
		{Islands: -1, Engine: Config{PopulationSize: 4}},
		{MigrationInterval: -5, Engine: Config{PopulationSize: 4}},
		{Migrants: -1, Engine: Config{PopulationSize: 4}},
	}
	for i, cfg := range bad {
		if _, err := NewIslands(e, cfg, rng.New(1)); err == nil {
			t.Errorf("bad island config %d accepted", i)
		}
	}
	if _, err := NewIslands(e, IslandConfig{Engine: Config{PopulationSize: 4}}, nil); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := NewIslands(e, IslandConfig{Engine: Config{PopulationSize: 3}}, rng.New(1)); err == nil {
		t.Error("odd per-island population accepted")
	}
}

func TestIslandsRunAndMergeFront(t *testing.T) {
	is := newIslands(t, 60, IslandConfig{
		Islands:           3,
		MigrationInterval: 5,
		Migrants:          2,
		Engine:            Config{PopulationSize: 10},
	}, 2)
	is.Run(20)
	if is.Generation() != 20 {
		t.Fatalf("Generation = %d", is.Generation())
	}
	front := is.FrontPoints()
	if len(front) == 0 {
		t.Fatal("empty merged front")
	}
	sp := moea.UtilityEnergySpace()
	for i := range front {
		for j := range front {
			if i != j && sp.Dominates(front[i], front[j]) {
				t.Fatal("merged front contains dominated point")
			}
		}
	}
	// Sorted by utility descending (Maximize first objective).
	for i := 1; i < len(front); i++ {
		if front[i][0] > front[i-1][0] {
			t.Fatal("merged front not sorted")
		}
	}
}

func TestIslandsDeterministic(t *testing.T) {
	run := func() [][]float64 {
		is := newIslands(t, 40, IslandConfig{
			Islands:           2,
			MigrationInterval: 4,
			Migrants:          1,
			Engine:            Config{PopulationSize: 8, Workers: 2},
		}, 3)
		is.Run(12)
		return is.FrontPoints()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("front sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i][0] != b[i][0] || a[i][1] != b[i][1] {
			t.Fatal("island run not deterministic")
		}
	}
}

func TestIslandsSeedsDistributed(t *testing.T) {
	e := newEval(t, 60)
	var seeds []*sched.Allocation
	for _, h := range heuristics.All {
		a, err := h.Build(e)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, a)
	}
	is, err := NewIslands(e, IslandConfig{
		Islands: 2,
		Engine:  Config{PopulationSize: 10, Seeds: seeds},
	}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	// The merged front must reach the min-energy seed's energy at gen 0
	// (the seed lives on one island and elitism keeps it).
	minSeedE := e.Evaluate(heuristics.BuildMinEnergy(e)).Energy
	front := is.FrontPoints()
	best := front[0][1]
	for _, p := range front {
		if p[1] < best {
			best = p[1]
		}
	}
	if best > minSeedE+1e-9 {
		t.Fatalf("merged front min energy %v above seed energy %v", best, minSeedE)
	}
}

func TestMigrationSpreadsElites(t *testing.T) {
	// Give island 0 the min-energy seed; after migrations, some other
	// island must hold a solution at (or below) an energy the random
	// islands could not plausibly find alone this fast.
	e := newEval(t, 80)
	seed := heuristics.BuildMinEnergy(e)
	seedE := e.Evaluate(seed).Energy
	is, err := NewIslands(e, IslandConfig{
		Islands:           3,
		MigrationInterval: 2,
		Migrants:          2,
		Engine:            Config{PopulationSize: 10, Seeds: []*sched.Allocation{seed}},
	}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	is.Run(10) // 5 migrations: elite reaches every ring position
	spread := 0
	for _, eng := range is.shard.engines {
		for _, ind := range eng.Population() {
			if ind.Objectives[1] <= seedE*1.001 {
				spread++
				break
			}
		}
	}
	if spread < 2 {
		t.Fatalf("elite spread to %d islands, want >= 2", spread)
	}
}

func TestElitesOrdering(t *testing.T) {
	eng := newEngine(t, 40, Config{PopulationSize: 12}, 6)
	eng.Run(5)
	elites := eng.Elites(5)
	if len(elites) != 5 {
		t.Fatalf("%d elites", len(elites))
	}
	for i := 1; i < len(elites); i++ {
		if elites[i].Rank < elites[i-1].Rank {
			t.Fatal("elites not rank-ordered")
		}
	}
	// Asking for more than the population clamps.
	if got := eng.Elites(1000); len(got) != 12 {
		t.Fatalf("oversized elites request returned %d", len(got))
	}
}

func TestInjectReplacesWorst(t *testing.T) {
	e := newEval(t, 50)
	engA, err := New(e, Config{PopulationSize: 10}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	engB, err := New(e, Config{PopulationSize: 10, Seeds: []*sched.Allocation{heuristics.BuildMinEnergy(e)}}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	elite := engB.Elites(1)
	seedE := elite[0].Objectives[1]
	if err := engA.Inject(elite); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ind := range engA.Population() {
		if ind.Objectives[1] <= seedE+1e-9 {
			found = true
		}
	}
	if !found {
		t.Fatal("injected elite not present")
	}
	// Injecting an invalid individual errors.
	bad := Individual{Alloc: sched.NewAllocation(3)}
	if err := engA.Inject([]Individual{bad}); err == nil {
		t.Fatal("invalid injection accepted")
	}
	// Empty injection is a no-op.
	if err := engA.Inject(nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIslandsStep4x50(b *testing.B) {
	is := newIslands(b, 250, IslandConfig{
		Islands: 4,
		Engine:  Config{PopulationSize: 50, Workers: 1},
	}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		is.Step()
	}
}

func TestSnapshotResumeBitIdentical(t *testing.T) {
	// Uninterrupted run vs snapshot-at-15-and-resume: identical fronts.
	cfg := Config{PopulationSize: 12, Workers: 1}
	full := newEngine(t, 40, cfg, 31)
	full.Run(30)
	want := full.FrontPoints()

	half := newEngine(t, 40, cfg, 31)
	half.Run(15)
	raw, err := EncodeSnapshot(half.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	resumed := newEngine(t, 40, cfg, 999) // different seed; Restore overwrites
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if resumed.Generation() != 15 {
		t.Fatalf("resumed at generation %d", resumed.Generation())
	}
	resumed.Run(15)
	got := resumed.FrontPoints()
	if len(got) != len(want) {
		t.Fatalf("front sizes differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("resumed run diverged at front point %d", i)
		}
	}
}

func TestRestoreValidation(t *testing.T) {
	eng := newEngine(t, 20, Config{PopulationSize: 8}, 32)
	snap := eng.Snapshot()
	snap.Population = snap.Population[:4]
	if err := eng.Restore(snap); err == nil {
		t.Fatal("short snapshot accepted")
	}
	snap2 := eng.Snapshot()
	snap2.Population[0].Machine[0] = 999
	if err := eng.Restore(snap2); err == nil {
		t.Fatal("invalid genome accepted")
	}
	// 2^32+1 would narrow to machine 1, a valid gene.
	wide := eng.Snapshot()
	wide.Population[0].Machine[0] = 1<<32 + 1
	if err := eng.Restore(wide); err == nil {
		t.Fatal("gene outside int32 accepted")
	}
	neg := eng.Snapshot()
	neg.Generation = -1
	if err := eng.Restore(neg); err == nil {
		t.Fatal("negative generation accepted")
	}
}

func TestDecodeSnapshotErrors(t *testing.T) {
	if _, err := DecodeSnapshot([]byte("{bad")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := DecodeSnapshot([]byte(`{"generation":1,"population":[]}`)); err == nil {
		t.Fatal("empty population accepted")
	}
}

// TestIslandsMigrationEvents checks that an attached observer sees one
// migration event per ring edge at every migration interval, and that
// observing does not perturb the run.
func TestIslandsMigrationEvents(t *testing.T) {
	e := newEval(t, 40)
	cfg := IslandConfig{
		Islands:           3,
		MigrationInterval: 4,
		Migrants:          2,
		Engine:            Config{PopulationSize: 8},
	}
	newIs := func() *Islands {
		is, err := NewIslands(e, cfg, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		return is
	}
	plain := newIs()
	plain.Run(12)

	observed := newIs()
	rec := &recorder{}
	observed.SetObserver(rec)
	observed.Run(12)

	// Migrations fire at generations 4, 8, and 12; each moves migrants
	// along every ring edge.
	if want := 3 * cfg.Islands; len(rec.migrations) != want {
		t.Fatalf("%d migration events, want %d", len(rec.migrations), want)
	}
	seen := map[int]int{}
	for _, m := range rec.migrations {
		if m.Generation%cfg.MigrationInterval != 0 || m.Generation == 0 {
			t.Fatalf("migration at generation %d, want multiples of %d", m.Generation, cfg.MigrationInterval)
		}
		if m.To != (m.From+1)%cfg.Islands {
			t.Fatalf("migration %d -> %d is not a ring edge", m.From, m.To)
		}
		if m.Count != cfg.Migrants {
			t.Fatalf("migration carried %d individuals, want %d", m.Count, cfg.Migrants)
		}
		seen[m.Generation]++
	}
	for gen, n := range seen {
		if n != cfg.Islands {
			t.Fatalf("generation %d saw %d migration events, want %d", gen, n, cfg.Islands)
		}
	}

	// Bit-identical merged fronts with and without the observer.
	pf, of := plain.FrontPoints(), observed.FrontPoints()
	if len(pf) != len(of) {
		t.Fatalf("front sizes differ with observer: %d vs %d", len(pf), len(of))
	}
	for i := range pf {
		if pf[i][0] != of[i][0] || pf[i][1] != of[i][1] {
			t.Fatal("observer changed the island run")
		}
	}
}
