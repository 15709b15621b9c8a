package experiments

import (
	"fmt"
	"io"

	"tradeoff/internal/analysis"
	"tradeoff/internal/nsga2"
)

// MutationSweep reproduces the parameter-selection experiment behind the
// paper's statement that the mutation probability was "selected by
// experimentation" (§IV-D): for each candidate rate, evolve a population
// for a fixed budget and score the final front by hypervolume under a
// common reference.
type MutationSweep struct {
	DataSet     string
	Generations int
	Rates       []float64
	// Hypervolume per rate under a common reference.
	Hypervolumes []float64
	// FrontSizes per rate.
	FrontSizes []int
	// BestRate is the rate with the largest hypervolume.
	BestRate float64
}

// RunMutationSweep evaluates the candidate mutation rates. Nil rates
// default to {0.01, 0.05, 0.1, 0.2, 0.5}.
func RunMutationSweep(ds *DataSet, cfg RunConfig, rates []float64) (*MutationSweep, error) {
	cfg = cfg.withDefaults(ds)
	if rates == nil {
		rates = []float64{0.01, 0.05, 0.1, 0.2, 0.5}
	}
	gens := cfg.Checkpoints[len(cfg.Checkpoints)-1]
	sweep := &MutationSweep{DataSet: ds.Name, Generations: gens, Rates: rates}
	var fronts [][]analysis.FrontPoint
	for _, rate := range rates {
		cps, err := cfg.evolve(ds, fmt.Sprintf("mut-%v", rate), nil, []int{gens}, func(ec *nsga2.Config) {
			ec.MutationRate = rate
		})
		if err != nil {
			return nil, err
		}
		fronts = append(fronts, cps[0].Front)
		sweep.FrontSizes = append(sweep.FrontSizes, len(cps[0].Front))
	}
	sweep.Hypervolumes = commonHypervolumes(fronts)
	best := 0
	for i, hv := range sweep.Hypervolumes {
		if hv > sweep.Hypervolumes[best] {
			best = i
		}
	}
	sweep.BestRate = rates[best]
	return sweep, nil
}

// Write prints the sweep.
func (s *MutationSweep) Write(w io.Writer) {
	fmt.Fprintf(w, "%s: mutation-rate sweep after %d generations\n", s.DataSet, s.Generations)
	fmt.Fprintf(w, "  %-10s %14s %10s\n", "rate", "hypervolume", "front")
	for i, r := range s.Rates {
		marker := ""
		if r == s.BestRate {
			marker = "   <- best"
		}
		fmt.Fprintf(w, "  %-10.2f %14.4g %10d%s\n", r, s.Hypervolumes[i], s.FrontSizes[i], marker)
	}
}
