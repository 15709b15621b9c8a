package experiments

import (
	"fmt"
	"io"

	"tradeoff/internal/analysis"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/nsga2"
	"tradeoff/internal/online"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// OnlineStudy demonstrates the workflow the paper proposes in §VI: run
// the offline bi-objective analysis, read the energy of the maximum
// utility-per-energy solution off the front, and hand it to an online
// dynamic heuristic as its energy constraint. The study reports each
// online policy's outcome next to the offline front (which upper-bounds
// what any online policy can achieve on the same trace).
type OnlineStudy struct {
	DataSet string
	// Front is the offline NSGA-II front.
	Front []analysis.FrontPoint
	// BudgetJoules is the energy constraint derived from the front's
	// efficient region.
	BudgetJoules float64
	// Policies holds one row per online policy.
	Policies []OnlinePolicyRow
}

// OnlinePolicyRow is one policy's outcome.
type OnlinePolicyRow struct {
	Name    string
	Point   analysis.FrontPoint
	Dropped int
	// OfflineUtilityAtSameEnergy interpolates the offline front at the
	// policy's energy; Ratio = online utility / offline utility.
	OfflineUtilityAtSameEnergy float64
	Ratio                      float64
}

// RunOnlineStudy runs the offline analysis and then the online policies.
func RunOnlineStudy(ds *DataSet, cfg RunConfig) (*OnlineStudy, error) {
	cfg = cfg.withDefaults(ds)
	// Offline: a well-seeded NSGA-II run to the final checkpoint.
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
	}, rng.NewStream(cfg.Seed, hashName("online-offline")))
	if err != nil {
		return nil, err
	}
	eng.Run(cfg.Checkpoints[len(cfg.Checkpoints)-1])
	front := analysis.FromObjectives(eng.FrontPoints())
	region, err := analysis.AnalyzeUPE(front, 0.05)
	if err != nil {
		return nil, err
	}
	study := &OnlineStudy{DataSet: ds.Name, Front: front, BudgetJoules: region.Peak.Energy}

	window := ds.Trace.Window
	policies := []online.Policy{
		online.GreedyEnergy{},
		online.GreedyUPE{},
		online.GreedyUtility{},
		online.Budgeted{Budget: study.BudgetJoules, Window: window, DropZeroUtility: true},
		online.Budgeted{Budget: study.BudgetJoules * 1.25, Window: window, DropZeroUtility: true},
	}
	names := []string{"", "", "", "budgeted@peak", "budgeted@1.25peak"}
	for i, p := range policies {
		res, err := online.Simulate(ds.Evaluator, p)
		if err != nil {
			return nil, err
		}
		name := names[i]
		if name == "" {
			name = p.Name()
		}
		pt := analysis.FrontPoint{Utility: res.Evaluation.Utility, Energy: res.Evaluation.Energy}
		offU, err := analysis.Interpolate(front, pt.Energy)
		if err != nil {
			return nil, err
		}
		ratio := 0.0
		if offU > 0 {
			ratio = pt.Utility / offU
		}
		study.Policies = append(study.Policies, OnlinePolicyRow{
			Name:                       name,
			Point:                      pt,
			Dropped:                    res.Dropped,
			OfflineUtilityAtSameEnergy: offU,
			Ratio:                      ratio,
		})
	}
	return study, nil
}

// Write prints the study.
func (s *OnlineStudy) Write(w io.Writer) {
	fmt.Fprintf(w, "%s: offline front (%d points) informing online heuristics\n", s.DataSet, len(s.Front))
	fmt.Fprintf(w, "  energy budget from the efficient region: %.4f MJ\n", s.BudgetJoules/1e6)
	fmt.Fprintf(w, "  %-22s %14s %12s %8s %16s %8s\n",
		"policy", "energy (MJ)", "utility", "dropped", "offline@same E", "ratio")
	for _, row := range s.Policies {
		fmt.Fprintf(w, "  %-22s %14.4f %12.1f %8d %16.1f %8.2f\n",
			row.Name, row.Point.Energy/1e6, row.Point.Utility, row.Dropped,
			row.OfflineUtilityAtSameEnergy, row.Ratio)
	}
}
