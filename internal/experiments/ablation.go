package experiments

import (
	"fmt"
	"io"

	"tradeoff/internal/analysis"
	"tradeoff/internal/nsga2"
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
	// Each variant flips exactly one operator off the baseline; the zero
	// values are the engine defaults (RerankRepair, DebFronts,
	// UniformSelection). Only ops' Ranking, Repair and Selection are read.
	variants := []struct {
		name string
		ops  nsga2.Config
	}{
		{name: "baseline (rerank/deb/uniform)"},
		{name: "repair=shuffle", ops: nsga2.Config{Repair: nsga2.ShuffleRepair}},
		{name: "ranking=dominance-count", ops: nsga2.Config{Ranking: nsga2.DominanceCount}},
		{name: "selection=tournament", ops: nsga2.Config{Selection: nsga2.TournamentSelection}},
	}
	res := &AblationResult{DataSet: ds.Name, Generations: gens}
	var fronts [][]analysis.FrontPoint
	for _, v := range variants {
		cps, err := cfg.evolve(ds, "abl-"+v.name, nil, []int{gens}, func(ec *nsga2.Config) {
			ec.Ranking, ec.Repair, ec.Selection = v.ops.Ranking, v.ops.Repair, v.ops.Selection
		})
		if err != nil {
			return nil, err
		}
		fronts = append(fronts, cps[0].Front)
		res.Rows = append(res.Rows, AblationRow{Name: v.name, FrontSize: len(cps[0].Front)})
	}
	for i, hv := range commonHypervolumes(fronts) {
		res.Rows[i].Hypervolume = hv
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
