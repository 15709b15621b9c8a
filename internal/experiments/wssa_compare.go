package experiments

import (
	"fmt"
	"io"

	"tradeoff/internal/analysis"
	"tradeoff/internal/moea"
	"tradeoff/internal/rng"
	"tradeoff/internal/wssa"
)

// WSSAComparison contrasts the paper's one-run-one-front NSGA-II approach
// against the related-work weighted-sum simulated-annealing protocol
// (§II, ref [8]): the annealer needs one full run per trade-off point.
type WSSAComparison struct {
	DataSet string
	// NSGA2Front is the front of a single NSGA-II run.
	NSGA2Front []analysis.FrontPoint
	// WSSAPoints holds one point per annealing run, in weight order.
	Weights    []float64
	WSSAPoints []analysis.FrontPoint
	// CoverageNSGA2OverWSSA is the fraction of annealing points the
	// NSGA-II front dominates.
	CoverageNSGA2OverWSSA float64
	// CoverageWSSAOverNSGA2 is the reverse coverage.
	CoverageWSSAOverNSGA2 float64
	// Budgets: total allocation evaluations spent by each approach.
	NSGA2Evaluations int
	WSSAEvaluations  int
}

// RunWSSAComparison gives both solvers a comparable evaluation budget:
// NSGA-II runs G generations of a size-N population (≈ N·(G+1)
// evaluations); the annealer splits the same budget across the weight
// ladder.
func RunWSSAComparison(ds *DataSet, cfg RunConfig, weights []float64) (*WSSAComparison, error) {
	cfg = cfg.withDefaults(ds)
	if len(weights) == 0 {
		weights = []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
	}
	gens := cfg.Checkpoints[len(cfg.Checkpoints)-1]

	cps, err := cfg.evolve(ds, "wssa-nsga2", nil, []int{gens}, nil)
	if err != nil {
		return nil, err
	}
	front := cps[0].Front

	totalBudget := cfg.PopulationSize * (gens + 1)
	perRun := totalBudget / len(weights)
	if perRun < 1 {
		perRun = 1
	}
	results, err := wssa.Ladder(ds.Evaluator, weights, wssa.Config{Iterations: perRun},
		rng.NewStream(cfg.Seed, hashName("wssa-ladder")))
	if err != nil {
		return nil, err
	}
	var pts []analysis.FrontPoint
	for _, r := range results {
		pts = append(pts, analysis.FrontPoint{Utility: r.Evaluation.Utility, Energy: r.Evaluation.Energy})
	}

	sp := moea.UtilityEnergySpace()
	cmp := &WSSAComparison{
		DataSet:          ds.Name,
		NSGA2Front:       front,
		Weights:          weights,
		WSSAPoints:       pts,
		NSGA2Evaluations: totalBudget,
		WSSAEvaluations:  perRun * len(weights),
	}
	cmp.CoverageNSGA2OverWSSA = sp.Coverage(analysis.ToObjectives(front), analysis.ToObjectives(pts))
	cmp.CoverageWSSAOverNSGA2 = sp.Coverage(analysis.ToObjectives(pts), analysis.ToObjectives(front))
	return cmp, nil
}

// Write prints the comparison.
func (c *WSSAComparison) Write(w io.Writer) {
	fmt.Fprintf(w, "%s: NSGA-II (one run, %d evaluations) vs weighted-sum SA (%d runs, %d evaluations)\n",
		c.DataSet, c.NSGA2Evaluations, len(c.Weights), c.WSSAEvaluations)
	fmt.Fprintf(w, "  NSGA-II front: %d trade-off points from a single run\n", len(c.NSGA2Front))
	fmt.Fprintf(w, "  %-10s %14s %14s\n", "weight", "energy (MJ)", "utility")
	for i, p := range c.WSSAPoints {
		fmt.Fprintf(w, "  %-10.2f %14.4f %14.1f\n", c.Weights[i], p.Energy/1e6, p.Utility)
	}
	fmt.Fprintf(w, "  coverage: NSGA-II dominates %.0f%% of SA points; SA dominates %.0f%% of the NSGA-II front\n",
		100*c.CoverageNSGA2OverWSSA, 100*c.CoverageWSSAOverNSGA2)
}
