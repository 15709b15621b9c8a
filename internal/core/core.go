// Package core assembles the paper's analysis framework: given a
// heterogeneous computing system and a workload trace, it builds seeded
// NSGA-II populations, evolves them into Pareto fronts of (total utility
// earned, total energy consumed), and post-processes the fronts the way a
// system administrator would — locating the maximum utility-per-energy
// region and comparing seeding strategies.
//
// The package is the one-stop API a downstream user consumes; the root
// tradeoff package re-exports it.
package core

import (
	"fmt"
	"math"
	"sort"

	"tradeoff/internal/analysis"
	"tradeoff/internal/hcs"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/moea"
	"tradeoff/internal/nsga2"
	"tradeoff/internal/obs"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
	"tradeoff/internal/workload"
)

// Framework is a reusable analysis context for one system + trace pair.
type Framework struct {
	sys   *hcs.System
	trace *workload.Trace
	eval  *sched.Evaluator
}

// New validates the system and trace and returns a Framework.
func New(sys *hcs.System, trace *workload.Trace) (*Framework, error) {
	eval, err := sched.NewEvaluator(sys, trace)
	if err != nil {
		return nil, err
	}
	return &Framework{sys: sys, trace: trace, eval: eval}, nil
}

// System returns the framework's system.
func (f *Framework) System() *hcs.System { return f.sys }

// Trace returns the framework's trace.
func (f *Framework) Trace() *workload.Trace { return f.trace }

// Evaluator exposes the underlying schedule evaluator.
func (f *Framework) Evaluator() *sched.Evaluator { return f.eval }

// Seed builds one greedy seeding allocation.
func (f *Framework) Seed(h heuristics.Heuristic) (*sched.Allocation, error) {
	return h.Build(f.eval)
}

// Evaluate simulates an allocation with the machine-major kernel the
// NSGA-II engine evaluates with, so re-evaluating an allocation returned
// by Optimize reproduces its front point bit for bit.
func (f *Framework) Evaluate(a *sched.Allocation) (sched.Evaluation, error) {
	if err := f.eval.Validate(a); err != nil {
		return sched.Evaluation{}, err
	}
	return f.eval.Evaluate(a), nil
}

// Options parameterizes an optimization run.
//
//detlint:optwire
type Options struct {
	// Generations to evolve. Must be > 0.
	Generations int
	// PopulationSize is NSGA-II's N (default 100, must be even).
	PopulationSize int
	// MutationRate is the per-offspring mutation probability (default 0.1).
	MutationRate float64
	// Seeds lists greedy heuristics whose allocations join the initial
	// population; empty means all-random.
	Seeds []heuristics.Heuristic
	// Checkpoints optionally records intermediate fronts at these
	// generation counts (must be nondecreasing and ≤ Generations).
	Checkpoints []int
	// RandomSeed drives all randomness (default 1).
	RandomSeed uint64
	// Workers bounds parallel fitness evaluation (0 = GOMAXPROCS).
	Workers int
	// UPETolerance is the relative band for the utility-per-energy
	// region (default 0.05).
	UPETolerance float64
	// Islands > 1 runs the island model: that many populations of
	// PopulationSize each, evolving in parallel with ring migration
	// every MigrationInterval generations. Checkpoints are not
	// supported with islands.
	Islands int
	// MigrationInterval is the island migration period (default 25).
	MigrationInterval int
	// AsyncIslands is retired and ignored: islands always step on the
	// logical-clock schedule (see internal/nsga2). It stays until the
	// end-to-end benchmark, which still sets it, next changes.
	//detlint:allow optwire retired field, ignored; kept only for the end-to-end benchmark that still sets it
	AsyncIslands bool
	// ArchiveSize, when > 0, bounds the returned front: the final
	// rank-1 points are filtered through an ε-dominance archive keeping
	// at most ArchiveSize well-spread representatives (with their
	// allocations); it must not be negative. Region and Hypervolume
	// describe the compacted front. Essential at 10^5+ tasks, where raw
	// fronts can hold thousands of near-duplicate points.
	ArchiveSize int
	// ArchiveEpsilon gives the per-objective ε box widths
	// (utility, energy) for ArchiveSize; empty derives each width from
	// the front's own extent divided by ArchiveSize.
	ArchiveEpsilon []float64
	// Resume, when non-nil, restores an island-model run from a
	// snapshot before evolving: the run continues from the snapshot's
	// generation up to Generations (the total target), bit-identically
	// to never having paused. Only meaningful with Islands > 1.
	Resume *nsga2.IslandsSnapshot
	// CaptureSnapshot records the island run's final state in
	// Result.FinalSnapshot, from which a later run can resume (see
	// Resume). Only meaningful with Islands > 1.
	CaptureSnapshot bool
	// Observer, when non-nil, receives run telemetry: per-generation
	// front/indicator/evaluation events from a single-population run, or
	// migration events from an island run. Observation never consumes
	// randomness or changes results; see internal/obs.
	Observer obs.Observer
	// PhaseTimer, when non-nil, profiles the run's phase-level wall time
	// (selection, variation, evaluation, sort, archive compaction,
	// island migration). Profiling never consumes
	// randomness or changes results; see internal/obs.
	PhaseTimer *obs.PhaseTimer
}

// Result is the outcome of one optimization run.
type Result struct {
	// Front is the final rank-1 front sorted by increasing energy.
	Front []analysis.FrontPoint
	// Allocations holds the allocation behind each front point, index-
	// aligned with Front.
	Allocations []*sched.Allocation
	// Checkpoints holds intermediate fronts if requested.
	Checkpoints []analysis.Checkpoint
	// Region is the maximum utility-per-energy region of the final front.
	Region analysis.UPERegion
	// Hypervolume of the final front under a reference derived from the
	// run's own extent (useful for comparing runs on the same instance).
	Hypervolume float64
	// Generations actually evolved.
	Generations int
	// FinalSnapshot is the island run's end-of-run snapshot when
	// Options.CaptureSnapshot was set; nil otherwise.
	FinalSnapshot *nsga2.IslandsSnapshot
}

// Optimize runs NSGA-II and returns the analyzed result.
func (f *Framework) Optimize(opts Options) (*Result, error) {
	if opts.Generations <= 0 {
		return nil, fmt.Errorf("core: Generations %d, want > 0", opts.Generations)
	}
	if opts.ArchiveSize < 0 {
		return nil, fmt.Errorf("core: ArchiveSize %d, want >= 0", opts.ArchiveSize)
	}
	if opts.RandomSeed == 0 {
		opts.RandomSeed = 1
	}
	if opts.UPETolerance == 0 {
		opts.UPETolerance = 0.05
	}
	var seeds []*sched.Allocation
	for _, h := range opts.Seeds {
		a, err := h.Build(f.eval)
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, a)
	}
	if opts.Islands > 1 {
		if len(opts.Checkpoints) > 0 {
			return nil, fmt.Errorf("core: checkpoints are not supported with islands")
		}
		return f.optimizeIslands(opts, seeds)
	}
	if opts.Resume != nil || opts.CaptureSnapshot {
		return nil, fmt.Errorf("core: snapshot resume/capture needs Islands > 1")
	}
	eng, err := nsga2.New(f.eval, nsga2.Config{
		PopulationSize: opts.PopulationSize,
		MutationRate:   opts.MutationRate,
		Seeds:          seeds,
		Workers:        opts.Workers,
	}, rng.New(opts.RandomSeed))
	if err != nil {
		return nil, err
	}
	eng.SetObserver(opts.Observer)
	eng.SetPhaseTimer(opts.PhaseTimer)
	var checkpoints []analysis.Checkpoint
	if len(opts.Checkpoints) > 0 {
		last := opts.Checkpoints[len(opts.Checkpoints)-1]
		if last > opts.Generations {
			return nil, fmt.Errorf("core: checkpoint %d beyond Generations %d", last, opts.Generations)
		}
		err := eng.RunCheckpoints(opts.Checkpoints, func(gen int, front []nsga2.Individual) {
			pts := make([]analysis.FrontPoint, len(front))
			for i, ind := range front {
				pts[i] = analysis.FrontPoint{Utility: ind.Objectives[0], Energy: ind.Objectives[1]}
			}
			checkpoints = append(checkpoints, analysis.Checkpoint{Generation: gen, Front: pts})
		})
		if err != nil {
			return nil, err
		}
	}
	eng.Run(opts.Generations - eng.Generation())

	res, err := f.FinishFront(eng.ParetoFront(), opts)
	if err != nil {
		return nil, err
	}
	res.Checkpoints = checkpoints
	return res, nil
}

// GenotypeError reports a front individual FinishFront cannot
// materialize: it carries neither an engine genome nor an allocation.
type GenotypeError struct {
	// Index is the individual's position in the front passed in.
	Index int
}

func (e *GenotypeError) Error() string {
	return fmt.Sprintf("core: front individual %d carries neither a genome nor an allocation", e.Index)
}

// FinishFront assembles a Result from a final rank-1 front. It works on
// objective points first: it sorts them by increasing energy (stably),
// drops identical objective pairs and applies the optional ε-archive
// compaction. Only then does it materialize, through
// Individual.Allocation, the allocation behind each point it kept, so a
// front of shared engine genomes costs allocations for the survivors
// alone. Last it computes the UPE region and hypervolume of the
// returned front. It is the common tail of every optimization mode —
// single population, islands, and the end-to-end benchmark's
// distributed island coordinator (internal/dist), whose merged worker
// fronts enter here so its Result is assembled exactly like an
// in-process one. FinishFront reorders
// front in place; an individual without a genotype is refused with a
// *GenotypeError naming its index in front as passed.
func (f *Framework) FinishFront(front []nsga2.Individual, opts Options) (*Result, error) {
	if opts.UPETolerance == 0 {
		opts.UPETolerance = 0.05
	}
	for i := range front {
		if !front[i].HasGenotype() {
			return nil, &GenotypeError{Index: i}
		}
	}
	sort.SliceStable(front, func(i, j int) bool { return front[i].Objectives[1] < front[j].Objectives[1] })
	res := &Result{Generations: opts.Generations}
	seen := make(map[[2]float64]bool, len(front))
	keep := make([]int, 0, len(front)) // front index behind each res.Front point
	for i, ind := range front {
		key := [2]float64{ind.Objectives[0], ind.Objectives[1]}
		if seen[key] {
			continue // identical objective pairs add nothing to the front
		}
		seen[key] = true
		res.Front = append(res.Front, analysis.FrontPoint{Utility: ind.Objectives[0], Energy: ind.Objectives[1]})
		keep = append(keep, i)
	}
	t0 := opts.PhaseTimer.Start()
	keep, err := compactFront(res, keep, opts.ArchiveSize, opts.ArchiveEpsilon)
	if err != nil {
		return nil, err
	}
	if opts.ArchiveSize > 0 {
		// Archive compaction runs once per run, not per generation, so
		// it is bracketed here rather than in Engine.Step.
		opts.PhaseTimer.Record(obs.PhaseArchive, t0)
	}
	for _, i := range keep {
		res.Allocations = append(res.Allocations, front[i].Allocation())
	}
	region, err := analysis.AnalyzeUPE(res.Front, opts.UPETolerance)
	if err != nil {
		return nil, err
	}
	res.Region = region
	sp := moea.UtilityEnergySpace()
	objs := analysis.ToObjectives(res.Front)
	res.Hypervolume = sp.Hypervolume2D(objs, sp.ReferenceFrom(0.05, objs))
	return res, nil
}

// compactFront filters res.Front through a bounded ε-dominance archive
// of at most size points. keep maps each res.Front point to its index
// in the front; compactFront returns that mapping for the surviving
// points. A no-op when size <= 0. The archive emits points in improving utility order
// (descending, for the Maximize sense); reversing gives ascending
// utility, which for mutually nondominated (max-utility, min-energy)
// points is also ascending energy — the Front sort contract is
// preserved.
func compactFront(res *Result, keep []int, size int, eps []float64) ([]int, error) {
	if size <= 0 {
		return keep, nil
	}
	sp := moea.UtilityEnergySpace()
	switch {
	case len(eps) == 0:
		eps = deriveEpsilon(res.Front, size)
	case len(eps) != sp.Dim():
		return nil, fmt.Errorf("core: ArchiveEpsilon has %d widths, want %d (utility, energy)", len(eps), sp.Dim())
	default:
		for _, e := range eps {
			if !(e > 0) || math.IsInf(e, 0) {
				return nil, fmt.Errorf("core: ArchiveEpsilon widths must be positive and finite, got %v", eps)
			}
		}
	}
	ar := moea.NewEpsilonArchive(sp, eps, size)
	for i, p := range res.Front {
		ar.Add([]float64{p.Utility, p.Energy}, i)
	}
	pts, pays := ar.Points(), ar.Payloads()
	front := make([]analysis.FrontPoint, len(pts))
	kept := make([]int, len(pts))
	for i := range pts {
		j := len(pts) - 1 - i
		front[i] = analysis.FrontPoint{Utility: pts[j][0], Energy: pts[j][1]}
		kept[i] = keep[pays[j]]
	}
	res.Front = front
	return kept, nil
}

// deriveEpsilon spreads size ε-boxes across the front's own extent in
// each objective. Degenerate extents (single point, empty front) fall
// back to a unit width, which collapses the objective into one box.
func deriveEpsilon(front []analysis.FrontPoint, size int) []float64 {
	minU, maxU := math.Inf(1), math.Inf(-1)
	minE, maxE := math.Inf(1), math.Inf(-1)
	for _, p := range front {
		minU, maxU = math.Min(minU, p.Utility), math.Max(maxU, p.Utility)
		minE, maxE = math.Min(minE, p.Energy), math.Max(maxE, p.Energy)
	}
	eps := []float64{(maxU - minU) / float64(size), (maxE - minE) / float64(size)}
	for k, e := range eps {
		if !(e > 0) {
			eps[k] = 1
		}
	}
	return eps
}

// IslandConfig builds the nsga2.IslandConfig an island-model run of
// these Options uses, including seed allocations built from
// opts.Seeds. The end-to-end benchmark's distributed island workers
// and their coordinator both derive their configuration here, so every
// process in a distributed run agrees on the exact engine parameters an in-process run would
// use — the precondition for bit-identical results.
func (f *Framework) IslandConfig(opts Options) (nsga2.IslandConfig, error) {
	var seeds []*sched.Allocation
	for _, h := range opts.Seeds {
		a, err := h.Build(f.eval)
		if err != nil {
			return nsga2.IslandConfig{}, err
		}
		seeds = append(seeds, a)
	}
	return islandConfigFrom(opts, seeds), nil
}

// islandConfigFrom maps Options onto the island configuration.
func islandConfigFrom(opts Options, seeds []*sched.Allocation) nsga2.IslandConfig {
	return nsga2.IslandConfig{
		Islands:           opts.Islands,
		MigrationInterval: opts.MigrationInterval,
		Engine: nsga2.Config{
			PopulationSize: opts.PopulationSize,
			MutationRate:   opts.MutationRate,
			Seeds:          seeds,
			Workers:        opts.Workers,
		},
	}
}

// optimizeIslands runs the island model and assembles the merged front.
func (f *Framework) optimizeIslands(opts Options, seeds []*sched.Allocation) (*Result, error) {
	is, err := nsga2.NewIslands(f.eval, islandConfigFrom(opts, seeds), rng.New(opts.RandomSeed))
	if err != nil {
		return nil, err
	}
	is.SetObserver(opts.Observer)
	is.SetPhaseTimer(opts.PhaseTimer)
	if opts.Resume != nil {
		if err := is.Restore(opts.Resume); err != nil {
			return nil, err
		}
	}
	if opts.Generations < is.Generation() {
		return nil, fmt.Errorf("core: Generations %d behind resumed generation %d",
			opts.Generations, is.Generation())
	}
	is.Run(opts.Generations - is.Generation())
	res, err := f.FinishFront(is.ParetoFront(), opts)
	if err != nil {
		return nil, err
	}
	if opts.CaptureSnapshot {
		res.FinalSnapshot = is.Snapshot()
	}
	return res, nil
}

// CompareSeeding runs Optimize once per named variant (each of the four
// greedy heuristics plus an all-random population) with a shared
// configuration, and returns the per-variant results plus the pairwise
// front comparison. This is the §VI seeding study in API form.
func (f *Framework) CompareSeeding(opts Options) (map[string]*Result, analysis.SeedComparison, error) {
	variants := []struct {
		name  string
		seeds []heuristics.Heuristic
	}{
		{"min-energy", []heuristics.Heuristic{heuristics.MinEnergy}},
		{"min-min", []heuristics.Heuristic{heuristics.MinMin}},
		{"max-utility", []heuristics.Heuristic{heuristics.MaxUtility}},
		{"max-utility-per-energy", []heuristics.Heuristic{heuristics.MaxUtilityPerEnergy}},
		{"random", nil},
	}
	results := make(map[string]*Result, len(variants))
	var names []string
	var fronts [][]analysis.FrontPoint
	for _, v := range variants {
		o := opts
		o.Seeds = v.seeds
		// Give each variant an independent stream while keeping the
		// whole study deterministic in opts.RandomSeed.
		if o.RandomSeed == 0 {
			o.RandomSeed = 1
		}
		o.RandomSeed = o.RandomSeed*31 + uint64(len(v.name))
		r, err := f.Optimize(o)
		if err != nil {
			return nil, analysis.SeedComparison{}, fmt.Errorf("core: variant %s: %w", v.name, err)
		}
		results[v.name] = r
		names = append(names, v.name)
		fronts = append(fronts, r.Front)
	}
	cmp, err := analysis.CompareSeeds(names, fronts)
	if err != nil {
		return nil, analysis.SeedComparison{}, err
	}
	return results, cmp, nil
}
