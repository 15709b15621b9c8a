// Benchmarks regenerating every table and figure of the paper (scaled to
// bench-friendly iteration counts; EXPERIMENTS.md records full runs), plus
// ablations of the design choices DESIGN.md calls out: ranking rule,
// crossover repair strategy, evaluation parallelism, and population size.
package tradeoff_test

import (
	"io"
	"testing"
	"time"

	"tradeoff/internal/core"
	"tradeoff/internal/data"
	"tradeoff/internal/datagen"
	"tradeoff/internal/experiments"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/nsga2"
	"tradeoff/internal/obs"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
	"tradeoff/internal/workload"
)

// benchCfg keeps figure benches to a few hundred milliseconds per op.
var benchCfg = experiments.RunConfig{
	PopulationSize: 40,
	Checkpoints:    []int{5, 25},
	Seed:           1,
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.WriteTableI(io.Discard)
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.WriteTableII(io.Discard)
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.WriteTableIII(io.Discard)
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.WriteFigure1(io.Discard)
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.WriteFigure2(io.Discard)
	}
}

func benchParetoFigure(b *testing.B, dsNum int) {
	b.Helper()
	ds, err := experiments.ByNumber(dsNum, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := benchCfg
		cfg.Seed = uint64(i + 1)
		res, err := experiments.RunParetoFigure(ds, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.WriteSeries(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 regenerates the data set 1 Pareto-front study.
func BenchmarkFigure3(b *testing.B) { benchParetoFigure(b, 1) }

// BenchmarkFigure4 regenerates the data set 2 Pareto-front study.
func BenchmarkFigure4(b *testing.B) { benchParetoFigure(b, 2) }

// BenchmarkFigure6 regenerates the data set 3 Pareto-front study.
func BenchmarkFigure6(b *testing.B) { benchParetoFigure(b, 3) }

// BenchmarkFigure5 regenerates the utility-per-energy region analysis.
func BenchmarkFigure5(b *testing.B) {
	ds, err := experiments.ByNumber(2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := benchCfg
		cfg.Seed = uint64(i + 1)
		res, err := experiments.RunFigure5(ds, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res.WriteFigure5(io.Discard)
	}
}

// --- Ablations -----------------------------------------------------------

func ablationEngine(b *testing.B, mutate func(*nsga2.Config)) *nsga2.Engine {
	b.Helper()
	ds, err := experiments.DataSet1(1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := nsga2.Config{PopulationSize: 100}
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := nsga2.New(ds.Evaluator, cfg, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// Ranking rule: Deb fronts (default) vs the paper's literal
// dominance-count ranking.
func BenchmarkAblationRankingDebFronts(b *testing.B) {
	eng := ablationEngine(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

func BenchmarkAblationRankingDominanceCount(b *testing.B) {
	eng := ablationEngine(b, func(c *nsga2.Config) { c.Ranking = nsga2.DominanceCount })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// Crossover repair: order-preserving re-rank vs order-destroying shuffle.
func BenchmarkAblationRepairRerank(b *testing.B) {
	eng := ablationEngine(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

func BenchmarkAblationRepairShuffle(b *testing.B) {
	eng := ablationEngine(b, func(c *nsga2.Config) { c.Repair = nsga2.ShuffleRepair })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// Evaluation parallelism: serial vs GOMAXPROCS worker pool.
func BenchmarkAblationEvalSerial(b *testing.B) {
	eng := ablationEngine(b, func(c *nsga2.Config) { c.Workers = 1 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

func BenchmarkAblationEvalParallel(b *testing.B) {
	eng := ablationEngine(b, func(c *nsga2.Config) { c.Workers = 0 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// Population size scaling.
func BenchmarkAblationPop50(b *testing.B)  { benchPop(b, 50) }
func BenchmarkAblationPop100(b *testing.B) { benchPop(b, 100) }
func BenchmarkAblationPop200(b *testing.B) { benchPop(b, 200) }

func benchPop(b *testing.B, n int) {
	eng := ablationEngine(b, func(c *nsga2.Config) { c.PopulationSize = n })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// Steady-state generation cost and allocation profile across population
// scales. The generation loop recycles chromosome and objective buffers
// through the engine arena, so allocs/op stays flat (goroutine fan-out
// overhead only) as the population grows. cmd/benchdiff compares two
// runs of these and fails on regression.
func BenchmarkStepPop100(b *testing.B)  { benchStep(b, 100) }
func BenchmarkStepPop200(b *testing.B)  { benchStep(b, 200) }
func BenchmarkStepPop1000(b *testing.B) { benchStep(b, 1000) }

func benchStep(b *testing.B, n int) {
	eng := ablationEngine(b, func(c *nsga2.Config) { c.PopulationSize = n })
	eng.Step() // size the arena and scratch before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// Steady-state generation cost with the full telemetry chain attached:
// metrics observer plus JSONL trace writer (to io.Discard) plus the
// phase profiler on a live clock. All record paths recycle their
// buffers and the profiler is fixed-slot atomic adds, so the observed
// loop stays allocation-free too; the delta against
// BenchmarkStepPop100 is the whole per-generation price of telemetry.
func BenchmarkStepObserved(b *testing.B) {
	eng := ablationEngine(b, nil)
	reg := obs.NewRegistry()
	eng.SetObserver(obs.Combine(obs.NewMetrics(reg), obs.NewTraceWriter(io.Discard, nil)))
	eng.SetPhaseTimer(obs.NewPhaseTimer(func() int64 { return time.Now().UnixNano() }))
	eng.Step() // size the arena, scratch, and telemetry buffers before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// Steady-state generation cost with a flight recorder in the observer
// chain (alongside the metrics and trace members of
// BenchmarkStepObserved). The ring deep-copies every event into
// slot-owned storage, so after the slots grow to the working set the
// wrap-around steady state recycles rather than reallocates. Named
// outside the benchdiff gate: the recorder is an opt-in diagnostic,
// not part of the pinned telemetry baseline.
func BenchmarkObservedWithFlightRecorder(b *testing.B) {
	eng := ablationEngine(b, nil)
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(64, func() int64 { return time.Now().UnixNano() })
	eng.SetObserver(obs.Combine(obs.NewMetrics(reg), obs.NewTraceWriter(io.Discard, nil), fr))
	for i := 0; i < 65; i++ {
		eng.Step() // grow the ring slots past one full wrap before measuring
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// Generation cost on the large traces, where per-offspring evaluation
// dominates and the machine-major kernel with delta inheritance pays
// off.
func BenchmarkStepPop100Tasks1000(b *testing.B) { benchStepLarge(b, 2) }
func BenchmarkStepPop100Tasks4000(b *testing.B) { benchStepLarge(b, 3) }

func benchStepLarge(b *testing.B, dsNum int) {
	ds, err := experiments.ByNumber(dsNum, 1)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := nsga2.New(ds.Evaluator, nsga2.Config{PopulationSize: 100}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	eng.Step() // size the arena and scratch before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkTypedStep50kTasks measures one generation over a
// datagen-synthesized 50 000-task trace on an enlarged heterogeneous
// system, where machine queues are long, unlike the paper traces' short
// ones. Skipped under -short: building the trace and one warm-up
// generation cost seconds.
func BenchmarkTypedStep50kTasks(b *testing.B) {
	if testing.Short() {
		b.Skip("50k-task trace synthesis is too slow for -short")
	}
	src := rng.New(1)
	sys, err := datagen.Enlarge(data.RealSystem(), datagen.Default(), src)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: 50000, Window: 40000}, src)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := sched.NewEvaluator(sys, tr)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := nsga2.New(ev, nsga2.Config{PopulationSize: 20}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	eng.Step() // size the arena and scratch before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// Pareto-front extraction cost (rank-1 copy + sort), measured on a
// converged population where the front is large.
func BenchmarkParetoFront(b *testing.B) {
	eng := ablationEngine(b, nil)
	eng.Run(25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(eng.ParetoFront()) == 0 {
			b.Fatal("empty front")
		}
	}
}

// Seed construction cost relative to one NSGA-II generation (the paper's
// claim that greedy heuristics are negligible).
func BenchmarkSeedConstructionAll(b *testing.B) {
	ds, err := experiments.DataSet1(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range experiments.Variants() {
			if v.Seed == nil {
				continue
			}
			if _, err := v.Seed.Build(ds.Evaluator); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Machine-major full-evaluation kernel on the 1000- and 4000-task
// traces: the per-offspring simulation cost inside the NSGA-II engine
// (per-task records + transposed execution-time/energy rows), and the
// cost of every offline replay, since Session, the Evaluator's Evaluate,
// Report and Gantt all run this kernel.
func BenchmarkEvaluate1000(b *testing.B) { benchEvaluateFull(b, 2) }
func BenchmarkEvaluate4000(b *testing.B) { benchEvaluateFull(b, 3) }

func benchEvaluateFull(b *testing.B, dsNum int) {
	ds, err := experiments.ByNumber(dsNum, 1)
	if err != nil {
		b.Fatal(err)
	}
	dsess := ds.Evaluator.NewDeltaSession()
	contribs := ds.Evaluator.NewContribs()
	a := ds.Evaluator.RandomAllocation(rng.New(2))
	var sink sched.Evaluation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = dsess.EvaluateFull(a, contribs)
	}
	_ = sink
}

// BenchmarkEvaluate4000Evolved times the same kernel on the population
// NSGA-II reaches after 100 generations of data set 3 (seed 1, the
// CLI's four seed heuristics), one member per op in turn. A random
// allocation queues tasks so long that almost every completion is past
// its TUF's tail guard (111 of 4000 tasks reach the segment table); in
// the evolved population 42% of completions fall inside the TUF window,
// as the engine sees them for most of a run.
func BenchmarkEvaluate4000Evolved(b *testing.B) {
	ds, err := experiments.ByNumber(3, 1)
	if err != nil {
		b.Fatal(err)
	}
	var seeds []*sched.Allocation
	for _, h := range []heuristics.Heuristic{heuristics.MinEnergy, heuristics.MinMin, heuristics.MaxUtility, heuristics.MaxUtilityPerEnergy} {
		a, err := h.Build(ds.Evaluator)
		if err != nil {
			b.Fatal(err)
		}
		seeds = append(seeds, a)
	}
	eng, err := nsga2.New(ds.Evaluator, nsga2.Config{PopulationSize: 100, Seeds: seeds}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	eng.Run(100)
	pop := eng.Population()
	dsess := ds.Evaluator.NewDeltaSession()
	contribs := ds.Evaluator.NewContribs()
	var sink sched.Evaluation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = dsess.EvaluateFull(pop[i%len(pop)].Alloc, contribs)
	}
	_ = sink
}

// BenchmarkEvaluateReplay4000 times the standalone replay a caller runs
// once per returned front point: Framework.Evaluate, Validate plus the
// kernel on the evaluator's pooled scratch, on a random data-set-3
// allocation. Warm, it makes 0 allocations.
func BenchmarkEvaluateReplay4000(b *testing.B) {
	ds, err := experiments.ByNumber(3, 1)
	if err != nil {
		b.Fatal(err)
	}
	fw, err := core.New(ds.System, ds.Trace)
	if err != nil {
		b.Fatal(err)
	}
	a := fw.Evaluator().RandomAllocation(rng.New(2))
	var sink sched.Evaluation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := fw.Evaluate(a)
		if err != nil {
			b.Fatal(err)
		}
		sink = ev
	}
	_ = sink
}

// Parent selection: the paper's uniform-random parents vs canonical
// NSGA-II binary tournament.
func BenchmarkAblationSelectionUniform(b *testing.B) {
	eng := ablationEngine(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

func BenchmarkAblationSelectionTournament(b *testing.B) {
	eng := ablationEngine(b, func(c *nsga2.Config) { c.Selection = nsga2.TournamentSelection })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// Island model vs single population at equal total budget.
func BenchmarkIslands4x25(b *testing.B) {
	ds, err := experiments.DataSet1(1)
	if err != nil {
		b.Fatal(err)
	}
	is, err := nsga2.NewIslands(ds.Evaluator, nsga2.IslandConfig{
		Islands: 4,
		Engine:  nsga2.Config{PopulationSize: 26, Workers: 1},
	}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		is.Step()
	}
}

func BenchmarkSinglePop104(b *testing.B) {
	eng := ablationEngine(b, func(c *nsga2.Config) { c.PopulationSize = 104; c.Workers = 1 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}
