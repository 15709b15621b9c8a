package tradeoff_test

import (
	"testing"

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
