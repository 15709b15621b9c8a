package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tradeoff/internal/analysis"
	"tradeoff/internal/moea"
	"tradeoff/internal/nsga2"
	"tradeoff/internal/obs"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// RepeatStats summarizes a metric across repeated runs with different
// random seeds — the variance reporting the paper's single-run figures
// omit, and the first thing a reviewer of a stochastic-search study asks
// for.
type RepeatStats struct {
	Runs   int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

func summarize(values []float64) RepeatStats {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	quantile := func(p float64) float64 {
		if len(v) == 1 {
			return v[0]
		}
		pos := p * float64(len(v)-1)
		lo := int(pos)
		frac := pos - float64(lo)
		if lo+1 >= len(v) {
			return v[len(v)-1]
		}
		return v[lo] + frac*(v[lo+1]-v[lo])
	}
	return RepeatStats{
		Runs:   len(v),
		Min:    v[0],
		Q1:     quantile(0.25),
		Median: quantile(0.5),
		Q3:     quantile(0.75),
		Max:    v[len(v)-1],
	}
}

// RepeatResult holds per-variant distributions of front quality across
// repeated seeded runs.
type RepeatResult struct {
	DataSet     string
	Generations int
	Runs        int
	// Hypervolume and MaxUtility distributions per variant, in
	// Variants() order.
	Names        []string
	Hypervolumes []RepeatStats
	MaxUtilities []RepeatStats
}

// RunRepeats evolves every seeding variant `runs` times with distinct
// seeds and reports hypervolume and best-utility distributions under a
// common reference point.
//
// The variant × run grid fans out across cfg.Workers goroutines (0 =
// GOMAXPROCS). Each run owns its engine and its per-(variant, run) rng
// stream, the shared evaluator is read-only, and results land in
// grid-indexed slots, so the outcome is bit-identical to a serial sweep
// for every worker count.
func RunRepeats(ds *DataSet, cfg RunConfig, runs int) (*RepeatResult, error) {
	if runs < 2 {
		return nil, fmt.Errorf("experiments: need >= 2 runs, got %d", runs)
	}
	cfg = cfg.withDefaults(ds)
	gens := cfg.Checkpoints[len(cfg.Checkpoints)-1]
	res := &RepeatResult{DataSet: ds.Name, Generations: gens, Runs: runs}

	// Build the seed allocations serially — heuristics share the
	// evaluator's sessions — then fan the independent runs out.
	variants := Variants()
	seeds := make([][]*sched.Allocation, len(variants))
	for vi, v := range variants {
		if v.Seed != nil {
			alloc, err := v.Seed.Build(ds.Evaluator)
			if err != nil {
				return nil, err
			}
			seeds[vi] = append(seeds[vi], alloc)
		}
		res.Names = append(res.Names, v.Name)
	}

	jobs := len(variants) * runs // job vi*runs+r = (variant vi, run r)
	fronts := make([][]analysis.FrontPoint, jobs)
	errs := make([]error, jobs)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= jobs {
					return
				}
				vi, r := j/runs, j%runs
				eng, err := nsga2.New(ds.Evaluator, nsga2.Config{
					PopulationSize: cfg.PopulationSize,
					MutationRate:   cfg.MutationRate,
					Seeds:          seeds[vi],
					Workers:        1, // parallelism lives in the run fan-out here
				}, rng.NewStream(cfg.Seed+uint64(r)*7919, hashName(variants[vi].Name)))
				if err != nil {
					errs[j] = err
					continue
				}
				eng.Run(gens)
				fronts[j] = analysis.FromObjectives(eng.FrontPoints())
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	sp := moea.UtilityEnergySpace()
	sets := make([][][]float64, jobs)
	for i, f := range fronts {
		sets[i] = analysis.ToObjectives(f)
	}
	ref := sp.ReferenceFrom(0.05, sets...)
	hv := make([][]float64, len(res.Names))
	mu := make([][]float64, len(res.Names))
	for i, f := range fronts {
		vi, r := i/runs, i%runs
		h := sp.Hypervolume2D(sets[i], ref)
		hv[vi] = append(hv[vi], h)
		best := 0.0
		for _, p := range f {
			if p.Utility > best {
				best = p.Utility
			}
		}
		mu[vi] = append(mu[vi], best)
		// Per-run telemetry is emitted here, in the serial aggregation
		// loop in grid order, so event order is deterministic for every
		// worker count (the run goroutines themselves must not observe).
		if cfg.Observer != nil {
			cfg.Observer.ObserveRun(obs.RunEvent{
				Dataset:     ds.Name,
				Variant:     res.Names[vi],
				Run:         r,
				Seed:        cfg.Seed + uint64(r)*7919,
				Hypervolume: h,
				MaxUtility:  best,
				FrontSize:   len(f),
			})
		}
	}
	for vi := range res.Names {
		res.Hypervolumes = append(res.Hypervolumes, summarize(hv[vi]))
		res.MaxUtilities = append(res.MaxUtilities, summarize(mu[vi]))
	}
	return res, nil
}

// Write prints the distributions.
func (r *RepeatResult) Write(w io.Writer) {
	fmt.Fprintf(w, "%s: %d runs x %d generations per variant (common reference)\n", r.DataSet, r.Runs, r.Generations)
	fmt.Fprintf(w, "  %-24s %36s %28s\n", "", "hypervolume (min/med/max)", "max utility (min/med/max)")
	for i, name := range r.Names {
		h, u := r.Hypervolumes[i], r.MaxUtilities[i]
		fmt.Fprintf(w, "  %-24s %11.3g %11.3g %11.3g %9.1f %9.1f %9.1f\n",
			name, h.Min, h.Median, h.Max, u.Min, u.Median, u.Max)
	}
}
