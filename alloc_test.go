package tradeoff_test

import (
	"testing"

	"tradeoff/internal/core"
	"tradeoff/internal/experiments"
	"tradeoff/internal/nsga2"
	"tradeoff/internal/rng"
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
