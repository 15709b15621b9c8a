package experiments

import (
	"fmt"
	"io"

	"tradeoff/internal/analysis"
	"tradeoff/internal/moea"
	"tradeoff/internal/nsga2"
	"tradeoff/internal/rng"
)

// AblationResult scores the engine design choices DESIGN.md §4 calls
// out — permutation repair, ranking rule, and parent selection — by the
// hypervolume each variant reaches under an identical budget and seed.
type AblationResult struct {
	DataSet     string
	Generations int
	Rows        []AblationRow
}

// AblationRow is one configuration's outcome.
type AblationRow struct {
	Name        string
	Hypervolume float64
	FrontSize   int
}

// RunAblation evaluates the baseline configuration plus one-change
// variants.
func RunAblation(ds *DataSet, cfg RunConfig) (*AblationResult, error) {
	cfg = cfg.withDefaults(ds)
	gens := cfg.Checkpoints[len(cfg.Checkpoints)-1]
	// Each variant flips exactly one knob off the baseline; the zero
	// values are the engine defaults (RerankRepair, DebFronts,
	// UniformSelection).
	variants := []struct {
		name      string
		ranking   nsga2.Ranking
		repair    nsga2.Repair
		selection nsga2.Selection
	}{
		{name: "baseline (rerank/deb/uniform)"},
		{name: "repair=shuffle", repair: nsga2.ShuffleRepair},
		{name: "ranking=dominance-count", ranking: nsga2.DominanceCount},
		{name: "selection=tournament", selection: nsga2.TournamentSelection},
	}
	res := &AblationResult{DataSet: ds.Name, Generations: gens}
	var fronts [][]analysis.FrontPoint
	for _, v := range variants {
		ecfg := nsga2.Config{
			PopulationSize: cfg.PopulationSize,
			MutationRate:   cfg.MutationRate,
			Ranking:        v.ranking,
			Workers:        cfg.Workers,
			Repair:         v.repair,
			Selection:      v.selection,
		}
		eng, err := nsga2.New(ds.Evaluator, ecfg, rng.NewStream(cfg.Seed, hashName("abl-"+v.name)))
		if err != nil {
			return nil, err
		}
		eng.Run(gens)
		front := analysis.FromObjectives(eng.FrontPoints())
		fronts = append(fronts, front)
		res.Rows = append(res.Rows, AblationRow{Name: v.name, FrontSize: len(front)})
	}
	sp := moea.UtilityEnergySpace()
	sets := make([][][]float64, len(fronts))
	for i, f := range fronts {
		sets[i] = analysis.ToObjectives(f)
	}
	ref := sp.ReferenceFrom(0.05, sets...)
	for i := range res.Rows {
		res.Rows[i].Hypervolume = sp.Hypervolume2D(sets[i], ref)
	}
	return res, nil
}

// Write prints the ablation table.
func (r *AblationResult) Write(w io.Writer) {
	fmt.Fprintf(w, "%s: design-choice ablation after %d generations (common reference)\n", r.DataSet, r.Generations)
	fmt.Fprintf(w, "  %-32s %14s %8s\n", "configuration", "hypervolume", "front")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-32s %14.4g %8d\n", row.Name, row.Hypervolume, row.FrontSize)
	}
}
