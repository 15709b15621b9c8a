package tradeoff

import (
	"testing"

	"tradeoff/internal/experiments"
	"tradeoff/internal/nsga2"
	"tradeoff/internal/rng"
)

// The scale trajectory (BENCH_scale.json, gated by make bench-scale)
// tracks the engine on the 50k/200k-task instances the scaling roadmap
// targets: one paper-sized population stepping over datagen-synthesized
// traces one to two orders beyond the paper's 4000-task maximum. The
// names deliberately do not match the bench-step gate's
// BenchmarkStep|BenchmarkParetoFront|BenchmarkEvaluate regexps — these
// runs cost seconds per iteration and have their own baseline.
// allocs/op in the recorded baseline is the flat-steady-state evidence:
// after the warm-up generation the chunked arena stops growing.

func benchScaleStep(b *testing.B, tasks int) {
	if testing.Short() {
		b.Skipf("%d-task trace synthesis is too slow for -short", tasks)
	}
	ds, err := experiments.ScaleDataSet(tasks, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := nsga2.New(ds.Evaluator, nsga2.Config{PopulationSize: 100}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	eng.Step() // size the arena and caches before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

func BenchmarkScaleStepPop100Tasks50k(b *testing.B)  { benchScaleStep(b, 50000) }
func BenchmarkScaleStepPop100Tasks200k(b *testing.B) { benchScaleStep(b, 200000) }
