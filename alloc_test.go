package tradeoff_test

import (
	"reflect"
	"runtime"
	"testing"

	"tradeoff/internal/core"
	"tradeoff/internal/experiments"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/nsga2"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// TestStepPop100Tasks4000Allocs holds BenchmarkStepPop100Tasks4000's
// configuration, on one worker as the recorded baselines run it, to at
// most the 2 allocations per warm Step that BENCH_step.json records:
// breeding, evaluation and survivor selection all run over recycled
// per-engine scratch.
func TestStepPop100Tasks4000Allocs(t *testing.T) {
	ds, err := experiments.ByNumber(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := nsga2.New(ds.Evaluator, nsga2.Config{PopulationSize: 100, Workers: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Step() // size the arena and scratch
	if n := testing.AllocsPerRun(5, eng.Step); n > 2 {
		t.Fatalf("warm Step allocates %v times, want at most 2", n)
	}
}

// TestFrameworkEvaluateAllocs holds the replay a caller runs once per
// returned front point, Framework.Evaluate (Validate, then the kernel)
// on data set 3, to 0 allocations per warm call: both steps run on the
// evaluator's pooled replay scratch. Evaluator.Report allocates only the
// rows it returns.
func TestFrameworkEvaluateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop puts at random")
	}
	ds, err := experiments.ByNumber(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(ds.System, ds.Trace)
	if err != nil {
		t.Fatal(err)
	}
	a := fw.Evaluator().RandomAllocation(rng.New(2))
	evaluate := func() {
		if _, err := fw.Evaluate(a); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, evaluate); n != 0 {
		t.Fatalf("warm Framework.Evaluate allocates %v times, want 0", n)
	}
	report := func() {
		if _, err := fw.Evaluator().Report(a); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, report); n != 1 {
		t.Fatalf("warm Report allocates %v times, want 1 (its rows)", n)
	}
}

// seededDS3Engine evolves data set 3 from the CLI's four seed
// heuristics for 25 generations on one worker; by then all 100
// individuals are rank 1.
func seededDS3Engine(t *testing.T) (*core.Framework, *nsga2.Engine) {
	t.Helper()
	ds, err := experiments.ByNumber(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(ds.System, ds.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var seeds []*sched.Allocation
	for _, h := range []heuristics.Heuristic{heuristics.MinEnergy, heuristics.MinMin, heuristics.MaxUtility, heuristics.MaxUtilityPerEnergy} {
		a, err := fw.Seed(h)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, a)
	}
	eng, err := nsga2.New(fw.Evaluator(), nsga2.Config{PopulationSize: 100, Workers: 1, Seeds: seeds}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(25)
	return fw, eng
}

// allocatedBytes returns the heap bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestParetoFrontAllocs holds a warm ParetoFront on data set 3 to less
// than 1 KB per front member: the front shares the population's genomes
// and allocates only its objective vectors and the slice.
func TestParetoFrontAllocs(t *testing.T) {
	_, eng := seededDS3Engine(t)
	n := len(eng.ParetoFront())
	if n == 0 {
		t.Fatal("empty front")
	}
	const calls = 10
	bytes := allocatedBytes(func() {
		for i := 0; i < calls; i++ {
			eng.ParetoFront()
		}
	})
	if per := float64(bytes) / calls / float64(n); per >= 1024 {
		t.Fatalf("warm ParetoFront allocates %.0f B per front member (%d members), want < 1024", per, n)
	}
}

// TestFinishFrontMaterializesSurvivors: FinishFront with ArchiveSize 8
// on a 100-member data-set-3 front of shared genomes builds the same
// Result as from fully cloned individuals, and allocates the genome-
// sized buffers (Machine and Order, one int32 per task each, counted at
// the heap's size for them) of the at most 8 points it keeps. The
// budget is 8 × 2 such buffers plus one more for the objective-point
// bookkeeping; a ninth survivor, or materializing the whole front
// first, would need at least two more.
func TestFinishFrontMaterializesSurvivors(t *testing.T) {
	fw, eng := seededDS3Engine(t)
	opts := core.Options{Generations: 25, ArchiveSize: 8}
	shared := eng.ParetoFront()
	if len(shared) != 100 {
		t.Fatalf("front has %d members, want 100", len(shared))
	}
	cloned := make([]nsga2.Individual, len(shared))
	for i, ind := range shared {
		cloned[i] = ind.Clone()
	}
	want, err := fw.FinishFront(cloned, opts)
	if err != nil {
		t.Fatal(err)
	}
	var got *core.Result
	bytes := allocatedBytes(func() { got, err = fw.FinishFront(shared, opts) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Result from shared genomes differs from the one built from cloned individuals")
	}
	if len(got.Allocations) == 0 || len(got.Allocations) > 8 {
		t.Fatalf("kept %d points, want 1–8", len(got.Allocations))
	}
	var buf []int32
	genome := allocatedBytes(func() { buf = make([]int32, fw.Evaluator().NumTasks()) })
	runtime.KeepAlive(buf)
	if budget := (8*2 + 1) * genome; bytes > budget {
		t.Fatalf("FinishFront allocated %d B for %d survivors, budget %d B (8 × 2 genome buffers of %d B, plus one)",
			bytes, len(got.Allocations), budget, genome)
	}
	t.Logf("FinishFront kept %d of 100, allocated %d B", len(got.Allocations), bytes)
}
