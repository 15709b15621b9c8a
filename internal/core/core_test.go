package core

import (
	"testing"

	"tradeoff/internal/data"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/moea"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
	"tradeoff/internal/workload"
)

func newFramework(t testing.TB, n int) *Framework {
	t.Helper()
	sys := data.RealSystem()
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: n, Window: 900}, rng.New(51))
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(sys, tr)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewRejectsInvalid(t *testing.T) {
	sys := data.RealSystem()
	bad := &workload.Trace{Window: 10}
	if _, err := New(sys, bad); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

func TestOptimizeBasics(t *testing.T) {
	f := newFramework(t, 60)
	res, err := f.Optimize(Options{Generations: 30, PopulationSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if len(res.Allocations) != len(res.Front) {
		t.Fatal("allocations not aligned with front")
	}
	// Front sorted by energy and each allocation reproduces its point.
	for i, p := range res.Front {
		if i > 0 && p.Energy < res.Front[i-1].Energy {
			t.Fatal("front not energy-sorted")
		}
		ev, err := f.Evaluate(res.Allocations[i])
		if err != nil {
			t.Fatal(err)
		}
		if ev.Utility != p.Utility || ev.Energy != p.Energy {
			t.Fatalf("allocation %d does not reproduce front point", i)
		}
	}
	if res.Hypervolume <= 0 {
		t.Fatalf("hypervolume = %v", res.Hypervolume)
	}
	if res.Region.PeakIndex < 0 {
		t.Fatal("UPE region missing")
	}
}

func TestOptimizeRejectsBadOptions(t *testing.T) {
	f := newFramework(t, 20)
	if _, err := f.Optimize(Options{Generations: 0}); err == nil {
		t.Error("zero generations accepted")
	}
	if _, err := f.Optimize(Options{Generations: 5, PopulationSize: 7}); err == nil {
		t.Error("odd population accepted")
	}
	if _, err := f.Optimize(Options{Generations: 5, PopulationSize: 10, Checkpoints: []int{9}}); err == nil {
		t.Error("checkpoint beyond generations accepted")
	}
}

func TestOptimizeCheckpoints(t *testing.T) {
	f := newFramework(t, 40)
	res, err := f.Optimize(Options{Generations: 20, PopulationSize: 10, Checkpoints: []int{5, 10, 20}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Checkpoints) != 3 {
		t.Fatalf("%d checkpoints recorded", len(res.Checkpoints))
	}
	if res.Checkpoints[2].Generation != 20 {
		t.Fatal("final checkpoint generation wrong")
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	f := newFramework(t, 40)
	opts := Options{Generations: 15, PopulationSize: 10, RandomSeed: 3}
	a, err := f.Optimize(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Optimize(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Front) != len(b.Front) {
		t.Fatal("nondeterministic front size")
	}
	for i := range a.Front {
		if a.Front[i] != b.Front[i] {
			t.Fatal("nondeterministic front")
		}
	}
}

func TestSeededOptimizeContainsSeedOrBetter(t *testing.T) {
	f := newFramework(t, 60)
	seed, err := f.Seed(heuristics.MinEnergy)
	if err != nil {
		t.Fatal(err)
	}
	seedEv, err := f.Evaluate(seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Optimize(Options{Generations: 10, PopulationSize: 10, Seeds: []heuristics.Heuristic{heuristics.MinEnergy}})
	if err != nil {
		t.Fatal(err)
	}
	// Elitism: the front's minimum energy can never exceed the seed's.
	if res.Front[0].Energy > seedEv.Energy+1e-9 {
		t.Fatalf("front min energy %v above seed energy %v", res.Front[0].Energy, seedEv.Energy)
	}
}

func TestEvaluateValidates(t *testing.T) {
	f := newFramework(t, 20)
	bad := sched.NewAllocation(3)
	if _, err := f.Evaluate(bad); err == nil {
		t.Fatal("invalid allocation accepted")
	}
}

func TestCompareSeeding(t *testing.T) {
	f := newFramework(t, 50)
	results, cmp, err := f.CompareSeeding(Options{Generations: 15, PopulationSize: 10, RandomSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 || len(cmp.Names) != 5 {
		t.Fatalf("expected 5 variants, got %d/%d", len(results), len(cmp.Names))
	}
	for name, r := range results {
		if len(r.Front) == 0 {
			t.Fatalf("variant %s has empty front", name)
		}
	}
	// Coverage matrix is square with zero diagonal.
	for i := range cmp.Coverage {
		if len(cmp.Coverage[i]) != 5 {
			t.Fatal("coverage matrix not square")
		}
		if cmp.Coverage[i][i] != 0 {
			t.Fatal("nonzero self-coverage")
		}
	}
}

func TestFrameworkAccessors(t *testing.T) {
	f := newFramework(t, 20)
	if f.System() == nil || f.Trace() == nil || f.Evaluator() == nil {
		t.Fatal("accessors returned nil")
	}
	sp := moea.UtilityEnergySpace()
	if sp.Dim() != 2 {
		t.Fatal("unexpected objective dimension")
	}
}

func TestOptimizeIslands(t *testing.T) {
	f := newFramework(t, 60)
	res, err := f.Optimize(Options{
		Generations:       20,
		PopulationSize:    10,
		Islands:           3,
		MigrationInterval: 5,
		Seeds:             []heuristics.Heuristic{heuristics.MinEnergy},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty island front")
	}
	for i := 1; i < len(res.Front); i++ {
		if res.Front[i].Energy < res.Front[i-1].Energy {
			t.Fatal("island front not energy-sorted")
		}
	}
	// Allocations reproduce their points.
	for i := range res.Front {
		ev, err := f.Evaluate(res.Allocations[i])
		if err != nil {
			t.Fatal(err)
		}
		if ev.Utility != res.Front[i].Utility || ev.Energy != res.Front[i].Energy {
			t.Fatalf("island allocation %d does not reproduce its point", i)
		}
	}
	if res.Hypervolume <= 0 {
		t.Fatal("no hypervolume")
	}
}

// TestOptimizeAsyncIslandsMatchesSync: the retired AsyncIslands field
// is ignored, so setting it leaves the island run bit-identical.
func TestOptimizeAsyncIslandsMatchesSync(t *testing.T) {
	f := newFramework(t, 50)
	opts := Options{
		Generations:       18,
		PopulationSize:    8,
		Islands:           3,
		MigrationInterval: 5,
		RandomSeed:        7,
	}
	sync, err := f.Optimize(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.AsyncIslands = true
	async, err := f.Optimize(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sync.Front) != len(async.Front) {
		t.Fatalf("front sizes differ: sync %d, async %d", len(sync.Front), len(async.Front))
	}
	for i := range sync.Front {
		if sync.Front[i] != async.Front[i] {
			t.Fatalf("front point %d differs: sync %+v, async %+v", i, sync.Front[i], async.Front[i])
		}
	}
	if sync.Hypervolume != async.Hypervolume {
		t.Fatal("hypervolumes differ")
	}
}

// TestOptimizeArchiveCompaction: ArchiveSize bounds the returned front
// through the ε-dominance archive while keeping the sort contract and
// point/allocation alignment.
func TestOptimizeArchiveCompaction(t *testing.T) {
	f := newFramework(t, 60)
	opts := Options{Generations: 25, PopulationSize: 20, RandomSeed: 4}
	full, err := f.Optimize(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Front) < 4 {
		t.Skipf("front too small (%d points) to exercise compaction", len(full.Front))
	}
	opts.ArchiveSize = 3
	compact, err := f.Optimize(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(compact.Front) > 3 {
		t.Fatalf("compacted front has %d points, want <= 3", len(compact.Front))
	}
	if len(compact.Front) == 0 {
		t.Fatal("compacted front empty")
	}
	if len(compact.Allocations) != len(compact.Front) {
		t.Fatal("allocations not aligned with compacted front")
	}
	fullSet := make(map[[2]float64]bool, len(full.Front))
	for _, p := range full.Front {
		fullSet[[2]float64{p.Utility, p.Energy}] = true
	}
	for i, p := range compact.Front {
		if i > 0 && p.Energy < compact.Front[i-1].Energy {
			t.Fatal("compacted front not energy-sorted")
		}
		if !fullSet[[2]float64{p.Utility, p.Energy}] {
			t.Fatalf("compacted point %d not drawn from the full front", i)
		}
		ev, err := f.Evaluate(compact.Allocations[i])
		if err != nil {
			t.Fatal(err)
		}
		if ev.Utility != p.Utility || ev.Energy != p.Energy {
			t.Fatalf("compacted allocation %d does not reproduce its point", i)
		}
	}

	// Explicit widths are honored; malformed widths are rejected.
	opts.ArchiveEpsilon = []float64{1, 1}
	if _, err := f.Optimize(opts); err != nil {
		t.Fatal(err)
	}
	opts.ArchiveEpsilon = []float64{1}
	if _, err := f.Optimize(opts); err == nil {
		t.Fatal("wrong-length ArchiveEpsilon accepted")
	}
	opts.ArchiveEpsilon = []float64{1, -2}
	if _, err := f.Optimize(opts); err == nil {
		t.Fatal("negative ArchiveEpsilon accepted")
	}
}

func TestOptimizeIslandsRejectsCheckpoints(t *testing.T) {
	f := newFramework(t, 20)
	_, err := f.Optimize(Options{Generations: 5, PopulationSize: 4, Islands: 2, Checkpoints: []int{3}})
	if err == nil {
		t.Fatal("checkpoints with islands accepted")
	}
}
