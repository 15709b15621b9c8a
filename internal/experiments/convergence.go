package experiments

import (
	"fmt"
	"io"

	"tradeoff/internal/analysis"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/nsga2"
	"tradeoff/internal/plot"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// ConvergenceResult records a hypervolume trajectory: how quickly each
// seeded population's front approaches its final quality. This extends
// the paper's visual "fronts converge with more iterations" argument
// (Figs. 3-4, §VI) with a scalar indicator.
type ConvergenceResult struct {
	DataSet string
	// Variants holds one trajectory per seeding variant.
	Variants []VariantConvergence
}

// VariantConvergence is one population's hypervolume trajectory.
type VariantConvergence struct {
	Variant     string
	Convergence analysis.Convergence
}

// RunConvergence evolves each seeded population and measures the
// hypervolume at every checkpoint.
func RunConvergence(ds *DataSet, cfg RunConfig) (*ConvergenceResult, error) {
	cfg = cfg.withDefaults(ds)
	res := &ConvergenceResult{DataSet: ds.Name}
	for _, v := range Variants() {
		var seeds []*sched.Allocation
		if v.Seed != nil {
			alloc, err := v.Seed.Build(ds.Evaluator)
			if err != nil {
				return nil, err
			}
			seeds = append(seeds, alloc)
		}
		eng, err := nsga2.New(ds.Evaluator, nsga2.Config{
			PopulationSize: cfg.PopulationSize,
			MutationRate:   cfg.MutationRate,
			Seeds:          seeds,
			Workers:        cfg.Workers,
		}, rng.NewStream(cfg.Seed, hashName("conv-"+v.Name)))
		if err != nil {
			return nil, err
		}
		eng.SetObserver(cfg.observerFor(ds, "conv-"+v.Name))
		eng.SetPhaseTimer(cfg.PhaseTimer)
		var cps []analysis.Checkpoint
		err = eng.RunCheckpoints(cfg.Checkpoints, func(gen int, front []nsga2.Individual) {
			pts := make([]analysis.FrontPoint, len(front))
			for i, ind := range front {
				pts[i] = analysis.FrontPoint{Utility: ind.Objectives[0], Energy: ind.Objectives[1]}
			}
			cps = append(cps, analysis.Checkpoint{Generation: gen, Front: pts})
		})
		if err != nil {
			return nil, err
		}
		conv, err := analysis.MeasureConvergence(cps)
		if err != nil {
			return nil, err
		}
		res.Variants = append(res.Variants, VariantConvergence{Variant: v.Name, Convergence: conv})
	}
	return res, nil
}

// Chart renders the hypervolume trajectories as a log-x line chart,
// normalized per variant to its final hypervolume.
func (r *ConvergenceResult) Chart() *plot.LineChart {
	c := &plot.LineChart{
		Title:  r.DataSet + ": hypervolume convergence",
		XLabel: "generation",
		YLabel: "fraction of final hypervolume",
		LogX:   true,
	}
	for _, v := range r.Variants {
		hv := v.Convergence.Hypervolumes
		if len(hv) == 0 {
			continue
		}
		final := hv[len(hv)-1]
		s := plot.Series{Name: v.Variant}
		for i, g := range v.Convergence.Generations {
			y := 0.0
			if final > 0 {
				y = hv[i] / final
			}
			s.Points = append(s.Points, plot.Point{X: float64(g), Y: y})
		}
		c.Series = append(c.Series, s)
	}
	return c
}

// Write prints the trajectories as a table: one row per variant, one
// hypervolume column per checkpoint, normalized to each variant's final
// value so "how converged" reads directly as a fraction.
func (r *ConvergenceResult) Write(w io.Writer) {
	if len(r.Variants) == 0 {
		return
	}
	fmt.Fprintf(w, "%s: hypervolume convergence (fraction of final HV)\n", r.DataSet)
	fmt.Fprintf(w, "  %-24s", "population")
	for _, g := range r.Variants[0].Convergence.Generations {
		fmt.Fprintf(w, " %10s", fmt.Sprintf("gen %d", g))
	}
	fmt.Fprintln(w)
	for _, v := range r.Variants {
		hv := v.Convergence.Hypervolumes
		final := hv[len(hv)-1]
		fmt.Fprintf(w, "  %-24s", v.Variant)
		for _, h := range hv {
			if final > 0 {
				fmt.Fprintf(w, " %10.3f", h/final)
			} else {
				fmt.Fprintf(w, " %10s", "n/a")
			}
		}
		fmt.Fprintln(w)
	}
}

// BaselineComparison places every classic single-solution heuristic in
// the objective space next to the NSGA-II front, quantifying how much of
// the space the evolutionary search opens up beyond any one-shot mapper.
type BaselineComparison struct {
	DataSet string
	// Points maps heuristic name to its (utility, energy) evaluation.
	Names  []string
	Points []analysis.FrontPoint
	// DominatedByFront[i] reports whether the NSGA-II front dominates
	// baseline i.
	DominatedByFront []bool
	// Front is the NSGA-II front used for the comparison.
	Front []analysis.FrontPoint
}

// RunBaselineComparison evaluates the seeding heuristics and the Braun
// et al. baselines against an evolved front.
func RunBaselineComparison(ds *DataSet, cfg RunConfig) (*BaselineComparison, error) {
	cfg = cfg.withDefaults(ds)
	// Evolve one well-seeded population to the final checkpoint.
	var seeds []*sched.Allocation
	for _, h := range heuristics.All {
		a, err := h.Build(ds.Evaluator)
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, a)
	}
	eng, err := nsga2.New(ds.Evaluator, nsga2.Config{
		PopulationSize: cfg.PopulationSize,
		MutationRate:   cfg.MutationRate,
		Seeds:          seeds,
		Workers:        cfg.Workers,
	}, rng.NewStream(cfg.Seed, hashName("baselines")))
	if err != nil {
		return nil, err
	}
	eng.SetObserver(cfg.observerFor(ds, "baselines"))
	eng.SetPhaseTimer(cfg.PhaseTimer)
	eng.Run(cfg.Checkpoints[len(cfg.Checkpoints)-1])
	front := analysis.FromObjectives(eng.FrontPoints())

	cmp := &BaselineComparison{DataSet: ds.Name, Front: front}
	add := func(name string, a *sched.Allocation) {
		ev := ds.Evaluator.Evaluate(a)
		p := analysis.FrontPoint{Utility: ev.Utility, Energy: ev.Energy}
		cmp.Names = append(cmp.Names, name)
		cmp.Points = append(cmp.Points, p)
		cmp.DominatedByFront = append(cmp.DominatedByFront, analysis.Dominates(front, []analysis.FrontPoint{p}))
	}
	for _, h := range heuristics.All {
		a, err := h.Build(ds.Evaluator)
		if err != nil {
			return nil, err
		}
		add(h.String(), a)
	}
	for _, b := range heuristics.Baselines {
		add(b.String(), b.Build(ds.Evaluator))
	}
	return cmp, nil
}

// Write prints the comparison.
func (c *BaselineComparison) Write(w io.Writer) {
	fmt.Fprintf(w, "%s: single-solution heuristics vs the evolved front (%d points)\n", c.DataSet, len(c.Front))
	fmt.Fprintf(w, "  %-24s %14s %14s %s\n", "heuristic", "energy (MJ)", "utility", "dominated by front?")
	for i, name := range c.Names {
		p := c.Points[i]
		verdict := "no"
		if c.DominatedByFront[i] {
			verdict = "yes"
		}
		fmt.Fprintf(w, "  %-24s %14.4f %14.1f %s\n", name, p.Energy/1e6, p.Utility, verdict)
	}
}
