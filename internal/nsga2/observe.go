package nsga2

import (
	"sort"

	"tradeoff/internal/moea"
	"tradeoff/internal/obs"
	"tradeoff/internal/sched"
)

// Observer attachment. The engine's telemetry path is designed so that
// an attached observer can never change results: it runs after survivor
// selection, draws nothing from any rng stream, and hands the observer
// borrow-only views of engine-owned recycled buffers. The disabled cost
// is a single nil check in Step.

// indicatorMargin pads the automatic hypervolume reference point beyond
// the first observed front (fraction of the per-objective range), so
// later fronts that degrade slightly on one objective still register.
const indicatorMargin = 0.1

// SetObserver attaches (or, with nil, detaches) a telemetry observer.
// An indicator kernel is created on first attach, its hypervolume
// reference derived from the current front, and the current front is
// primed as the epsilon baseline — so the first observed generation's
// epsilon measures progress over the pre-attach population rather than
// reporting a first-observation zero. Evaluation-counter baselines are
// resynced so pre-attach work (initial population, restores) is not
// attributed to the first observed generation.
func (e *Engine) SetObserver(o obs.Observer) {
	e.observer = o
	if o == nil {
		return
	}
	if e.kernel == nil {
		e.kernel = obs.NewAutoIndicatorKernel(indicatorMargin)
		e.kernel.Prime(e.gatherFront())
	}
	e.statsBase = e.sessionStats()
}

// SetPhaseTimer attaches (or, with nil, detaches) a phase profiler.
// Step's phase brackets record into it; when an observer is also
// attached, each generation's phase-time deltas are emitted in
// GenerationStats.PhaseNanos. The timer never touches rng streams, so
// profiled runs stay bit-identical to unprofiled ones. One timer may be
// shared across the engines of an island model — per-generation deltas
// stay coherent because island engines carry no engine-level observer.
func (e *Engine) SetPhaseTimer(t *obs.PhaseTimer) {
	e.phase = t
	e.phaseBase = t.Totals()
}

// SetIndicatorReference replaces the indicator kernel with one using the
// explicit hypervolume reference point ref = [utility, energy], priming
// it with the current front. Call before or after SetObserver; fronts
// observed afterwards are measured against ref.
func (e *Engine) SetIndicatorReference(ref []float64) {
	e.kernel = obs.NewIndicatorKernel(ref)
	e.kernel.Prime(e.gatherFront())
}

// sessionStats sums the cumulative work counters of every evaluation
// session.
func (e *Engine) sessionStats() sched.DeltaStats {
	var sum sched.DeltaStats
	for _, s := range e.sessions {
		sum.Add(s.Stats())
	}
	return sum
}

// gatherFront collects the rank-1 objective vectors into the recycled
// frontObs buffer, sorted by descending first objective under the
// problem's sense (matching FrontPoints order). The returned slice and
// the vectors it holds are borrowed from the engine.
//
//detlint:hotpath
func (e *Engine) gatherFront() [][]float64 {
	e.frontObs = e.frontObs[:0]
	for i := range e.pop {
		if e.pop[i].Rank == 1 {
			e.frontObs = append(e.frontObs, e.pop[i].Objectives)
		}
	}
	e.frontOrd.pts = e.frontObs
	e.frontOrd.maximize = e.space.Senses[0] == moea.Maximize
	sort.Stable(&e.frontOrd)
	e.frontOrd.pts = nil
	return e.frontObs
}

// notifyGeneration assembles and emits the per-generation telemetry
// event: the sorted rank-1 front, this generation's evaluation-kernel
// work (cumulative session counters diffed against the previous
// snapshot) and the convergence indicators. Everything lives in
// engine-owned recycled buffers; the event is valid only during the
// ObserveGeneration call.
//
//detlint:hotpath
func (e *Engine) notifyGeneration() {
	front := e.gatherFront()
	cum := e.sessionStats()
	gen := cum
	gen.Sub(e.statsBase)
	e.statsBase = cum
	arenaInUse, arenaSlots := e.arena.occupancy()
	var phases obs.PhaseTotals
	if e.phase != nil {
		tot := e.phase.Totals()
		for p := range tot {
			phases[p] = tot[p] - e.phaseBase[p]
		}
		e.phaseBase = tot
	}
	var ind obs.Indicators
	if e.kernel != nil {
		ind = e.kernel.Update(front)
	} else {
		ind.FrontSize = len(front)
	}
	e.observer.ObserveGeneration(obs.GenerationStats{
		Generation:        e.generation,
		Population:        e.cfg.PopulationSize,
		Front:             front,
		FullEvals:         int(gen.FullEvals),
		DeltaEvals:        int(gen.DeltaEvals),
		ArenaInUse:        arenaInUse,
		ArenaSlots:        arenaSlots,
		MachinesSimulated: int(gen.MachinesSimulated),
		MachinesInherited: int(gen.MachinesInherited),
		NumMachines:       e.eval.NumMachines(),
		PhaseNanos:        phases,
		Indicators:        ind,
	})
}

// frontSorter stably orders borrowed objective vectors by the first
// objective (descending under Maximize, ascending under Minimize), ties
// by the second ascending — without a capturing closure.
type frontSorter struct {
	pts      [][]float64
	maximize bool
}

func (s *frontSorter) Len() int { return len(s.pts) }

func (s *frontSorter) Less(a, b int) bool {
	pa, pb := s.pts[a], s.pts[b]
	if pa[0] != pb[0] {
		if s.maximize {
			return pa[0] > pb[0]
		}
		return pa[0] < pb[0]
	}
	return pa[1] < pb[1]
}

func (s *frontSorter) Swap(a, b int) { s.pts[a], s.pts[b] = s.pts[b], s.pts[a] }
