package experiments

import (
	"fmt"
	"io"
	"sort"

	"tradeoff/internal/analysis"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/moea"
	"tradeoff/internal/nsga2"
	"tradeoff/internal/obs"
	"tradeoff/internal/plot"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
	"tradeoff/internal/utility"
)

// Variant names an initial-population seeding strategy of §VI. The zero
// value (nil Heuristic) is the all-random population.
type Variant struct {
	Name string
	// Seed is nil for the all-random population.
	Seed *heuristics.Heuristic
}

// Variants returns the five populations of Figs. 3, 4 and 6, in the
// paper's marker order: min-energy (diamond), min-min (square),
// max-utility (circle), max-utility-per-energy (triangle), random (star).
func Variants() []Variant {
	h := func(x heuristics.Heuristic) *heuristics.Heuristic { return &x }
	return []Variant{
		{Name: "min-energy", Seed: h(heuristics.MinEnergy)},
		{Name: "min-min", Seed: h(heuristics.MinMin)},
		{Name: "max-utility", Seed: h(heuristics.MaxUtility)},
		{Name: "max-utility-per-energy", Seed: h(heuristics.MaxUtilityPerEnergy)},
		{Name: "random", Seed: nil},
	}
}

// RunConfig parameterizes a Pareto-front experiment.
//
//detlint:optwire
type RunConfig struct {
	// PopulationSize is NSGA-II's N. Default 100.
	PopulationSize int
	// MutationRate is the per-offspring mutation probability. Default 0.1.
	MutationRate float64
	// Checkpoints overrides the data set's default checkpoints.
	Checkpoints []int
	// Scale multiplies the chosen checkpoints (for quick smoke runs use
	// e.g. 0.1; for paper-scale pass the PaperCheckpoints explicitly).
	Scale float64
	// Seed drives all randomness. Default 1.
	Seed uint64
	// Workers bounds evaluation parallelism (0 = GOMAXPROCS).
	Workers int
	// Observer, when non-nil, receives run telemetry: per-generation
	// events from the serial experiment engines (labeled
	// "dataset/variant") and per-run summary events from RunRepeats.
	// Observation never changes results; see internal/obs.
	Observer obs.Observer
	// PhaseTimer, when non-nil, accumulates a phase-level wall-time
	// profile across every engine an experiment runs. Profiling never
	// changes results; see internal/obs.
	PhaseTimer *obs.PhaseTimer
}

func (c RunConfig) withDefaults(ds *DataSet) RunConfig {
	if c.PopulationSize == 0 {
		c.PopulationSize = 100
	}
	if c.MutationRate == 0 {
		c.MutationRate = 0.1
	}
	if c.Checkpoints == nil {
		c.Checkpoints = ds.DefaultCheckpoints
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	scaled := make([]int, len(c.Checkpoints))
	for i, cp := range c.Checkpoints {
		s := int(float64(cp) * c.Scale)
		// Clamp only positive checkpoints: scaling must not erase an
		// explicit generation-0 checkpoint (the initial population's
		// front), nor collapse a positive one to "no evolution".
		if s < 1 && cp > 0 {
			s = 1
		}
		scaled[i] = s
	}
	sort.Ints(scaled)
	c.Checkpoints = scaled
	return c
}

// observerFor returns the engine-level observer for one experiment run,
// labeling its generation events "dataset/name", or nil when telemetry
// is disabled.
func (c RunConfig) observerFor(ds *DataSet, name string) obs.Observer {
	if c.Observer == nil {
		return nil
	}
	return obs.Labeled{Label: ds.Name + "/" + name, Next: c.Observer}
}

// VariantRun is one population's recorded front evolution.
type VariantRun struct {
	Variant     string
	Checkpoints []analysis.Checkpoint
}

// Final returns the front at the last checkpoint.
func (vr *VariantRun) Final() []analysis.FrontPoint {
	if len(vr.Checkpoints) == 0 {
		return nil
	}
	return vr.Checkpoints[len(vr.Checkpoints)-1].Front
}

// FigureResult is a complete Pareto-front experiment: one run per seeding
// variant over common checkpoints (the content of Figs. 3, 4, 6).
type FigureResult struct {
	DataSet     string
	Checkpoints []int
	Runs        []VariantRun
}

// RunParetoFigure evolves one NSGA-II population per seeding variant and
// records the rank-1 front at each checkpoint. This regenerates Figs. 3,
// 4 and 6 when applied to data sets 1, 2 and 3 respectively.
func RunParetoFigure(ds *DataSet, cfg RunConfig) (*FigureResult, error) {
	cfg = cfg.withDefaults(ds)
	res := &FigureResult{DataSet: ds.Name, Checkpoints: cfg.Checkpoints}
	for _, v := range Variants() {
		var seeds []*sched.Allocation
		if v.Seed != nil {
			alloc, err := v.Seed.Build(ds.Evaluator)
			if err != nil {
				return nil, fmt.Errorf("experiments: seed %s: %w", v.Name, err)
			}
			seeds = append(seeds, alloc)
		}
		eng, err := nsga2.New(ds.Evaluator, nsga2.Config{
			PopulationSize: cfg.PopulationSize,
			MutationRate:   cfg.MutationRate,
			Seeds:          seeds,
			Workers:        cfg.Workers,
		}, rng.NewStream(cfg.Seed, hashName(v.Name)))
		if err != nil {
			return nil, fmt.Errorf("experiments: engine for %s: %w", v.Name, err)
		}
		eng.SetObserver(cfg.observerFor(ds, v.Name))
		eng.SetPhaseTimer(cfg.PhaseTimer)
		run := VariantRun{Variant: v.Name}
		err = eng.RunCheckpoints(cfg.Checkpoints, func(gen int, front []nsga2.Individual) {
			pts := make([]analysis.FrontPoint, len(front))
			for i, ind := range front {
				pts[i] = analysis.FrontPoint{Utility: ind.Objectives[0], Energy: ind.Objectives[1]}
			}
			sort.Slice(pts, func(a, b int) bool { return pts[a].Energy < pts[b].Energy })
			run.Checkpoints = append(run.Checkpoints, analysis.Checkpoint{Generation: gen, Front: pts})
		})
		if err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// hashName derives a stable stream id from a variant name (FNV-1a).
func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Chart renders the fronts at checkpoint index k as a plot.Chart
// (energy in MJ on x, utility on y), matching the figures' axes.
func (fr *FigureResult) Chart(k int) (*plot.Chart, error) {
	if k < 0 || k >= len(fr.Checkpoints) {
		return nil, fmt.Errorf("experiments: checkpoint index %d out of range [0,%d)", k, len(fr.Checkpoints))
	}
	c := &plot.Chart{
		Title:  fmt.Sprintf("%s: Pareto fronts through %d iterations", fr.DataSet, fr.Checkpoints[k]),
		XLabel: "total energy consumed (MJ)",
		YLabel: "total utility earned",
	}
	for _, run := range fr.Runs {
		if k >= len(run.Checkpoints) {
			continue
		}
		s := plot.Series{Name: run.Variant}
		for _, p := range run.Checkpoints[k].Front {
			s.Points = append(s.Points, plot.Point{X: p.Energy / 1e6, Y: p.Utility})
		}
		c.Series = append(c.Series, s)
	}
	return c, nil
}

// WriteSeries prints the experiment's front series (the data behind the
// figure) as aligned text: per checkpoint, per variant, the front's
// extent and quality indicators plus a seeded-vs-random coverage figure.
func (fr *FigureResult) WriteSeries(w io.Writer) error {
	sp := moea.UtilityEnergySpace()
	var random *VariantRun
	for i := range fr.Runs {
		if fr.Runs[i].Variant == "random" {
			random = &fr.Runs[i]
		}
	}
	for k, cp := range fr.Checkpoints {
		fmt.Fprintf(w, "\n%s through %d iterations\n", fr.DataSet, cp)
		fmt.Fprintf(w, "  %-24s %6s %14s %14s %14s %10s\n",
			"population", "front", "minE(MJ)", "maxE(MJ)", "maxU", "C(v,rand)")
		for _, run := range fr.Runs {
			if k >= len(run.Checkpoints) {
				continue
			}
			front := run.Checkpoints[k].Front
			if len(front) == 0 {
				continue
			}
			minE, maxE, maxU := front[0].Energy, front[0].Energy, front[0].Utility
			for _, p := range front {
				if p.Energy < minE {
					minE = p.Energy
				}
				if p.Energy > maxE {
					maxE = p.Energy
				}
				if p.Utility > maxU {
					maxU = p.Utility
				}
			}
			cov := 0.0
			if random != nil && run.Variant != "random" && k < len(random.Checkpoints) {
				cov = sp.Coverage(analysis.ToObjectives(front), analysis.ToObjectives(random.Checkpoints[k].Front))
			}
			fmt.Fprintf(w, "  %-24s %6d %14.4f %14.4f %14.1f %10.2f\n",
				run.Variant, len(front), minE/1e6, maxE/1e6, maxU, cov)
		}
	}
	return nil
}

// Figure1Rows returns the sample time-utility function of Fig. 1
// evaluated over its horizon, including the paper's two calibration
// points (t=20 → 12 units, t=47 → 7 units).
func Figure1Rows() (times, values []float64) {
	f := utility.Figure1()
	for t := 0.0; t <= f.Horizon()+10; t += 1 {
		times = append(times, t)
		values = append(values, f.Value(t))
	}
	return times, values
}

// WriteFigure1 prints the Fig. 1 series.
func WriteFigure1(w io.Writer) {
	times, values := Figure1Rows()
	fmt.Fprintln(w, "Figure 1: sample task time-utility function")
	fmt.Fprintf(w, "  %-16s %s\n", "completion time", "utility earned")
	for i := range times {
		marker := ""
		if times[i] == 20 || times[i] == 47 {
			marker = "   <- paper calibration point"
		}
		fmt.Fprintf(w, "  %-16.0f %.1f%s\n", times[i], values[i], marker)
	}
}

// WriteFigure2 prints the dominance relations of the paper's Fig. 2
// (A dominates B; A and C are incomparable).
func WriteFigure2(w io.Writer) {
	sp := moea.UtilityEnergySpace()
	pts := map[string][]float64{
		"A": {10, 5},
		"B": {8, 7},
		"C": {6, 3},
	}
	fmt.Fprintln(w, "Figure 2: solution dominance (objective = [utility, energy])")
	for _, name := range []string{"A", "B", "C"} {
		fmt.Fprintf(w, "  %s = utility %.0f, energy %.0f\n", name, pts[name][0], pts[name][1])
	}
	order := []string{"A", "B", "C"}
	for _, a := range order {
		for _, b := range order {
			if a == b {
				continue
			}
			switch {
			case sp.Dominates(pts[a], pts[b]):
				fmt.Fprintf(w, "  %s dominates %s\n", a, b)
			case sp.Incomparable(pts[a], pts[b]) && a < b:
				fmt.Fprintf(w, "  %s and %s are incomparable (both on the Pareto front)\n", a, b)
			}
		}
	}
}

// Figure5Result is the utility-per-energy region analysis of Fig. 5.
type Figure5Result struct {
	Region analysis.UPERegion
	// Generations the analyzed front was evolved for.
	Generations int
}

// RunFigure5 evolves the max-utility-per-energy seeded population on a
// data set and locates the maximum utility-per-energy region of its final
// front (Fig. 5 subplots A-C).
func RunFigure5(ds *DataSet, cfg RunConfig) (*Figure5Result, error) {
	cfg = cfg.withDefaults(ds)
	seedAlloc, err := heuristics.MaxUtilityPerEnergy.Build(ds.Evaluator)
	if err != nil {
		return nil, err
	}
	eng, err := nsga2.New(ds.Evaluator, nsga2.Config{
		PopulationSize: cfg.PopulationSize,
		MutationRate:   cfg.MutationRate,
		Seeds:          []*sched.Allocation{seedAlloc},
		Workers:        cfg.Workers,
	}, rng.NewStream(cfg.Seed, hashName("figure5")))
	if err != nil {
		return nil, err
	}
	eng.SetObserver(cfg.observerFor(ds, "figure5"))
	eng.SetPhaseTimer(cfg.PhaseTimer)
	last := cfg.Checkpoints[len(cfg.Checkpoints)-1]
	eng.Run(last)
	pts := analysis.FromObjectives(eng.FrontPoints())
	region, err := analysis.AnalyzeUPE(pts, 0.05)
	if err != nil {
		return nil, err
	}
	return &Figure5Result{Region: region, Generations: last}, nil
}

// WriteFigure5 prints the Fig. 5 series: the front, the UPE-vs-utility
// and UPE-vs-energy peaks, and the located region.
func (r *Figure5Result) WriteFigure5(w io.Writer) {
	reg := r.Region
	fmt.Fprintf(w, "Figure 5: utility-per-energy region after %d iterations\n", r.Generations)
	fmt.Fprintf(w, "  %-14s %-14s %s\n", "energy (MJ)", "utility", "utility/energy (1/MJ)")
	for i, p := range reg.Points {
		marker := ""
		switch {
		case i == reg.PeakIndex:
			marker = "   <- peak"
		case i >= reg.Lo && i <= reg.Hi:
			marker = "   <- region"
		}
		fmt.Fprintf(w, "  %-14.4f %-14.1f %.4f%s\n", p.Energy/1e6, p.Utility, p.UPE()*1e6, marker)
	}
	fmt.Fprintf(w, "  peak: utility %.1f at %.4f MJ (UPE %.4f utility/MJ), region spans indices [%d,%d] of %d\n",
		reg.Peak.Utility, reg.Peak.Energy/1e6, reg.PeakUPE*1e6, reg.Lo, reg.Hi, len(reg.Points))
}
