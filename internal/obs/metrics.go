package obs

// Metrics is an Observer that feeds a Registry, mapping engine and
// runner events to counters, gauges, and the dirty-machine histogram.
// Its record path touches only atomic instruments, so it is safe under
// the island model's and RunRepeats's serial emission and allocates
// nothing per event.
type Metrics struct {
	generations       *Counter
	fullEvals         *Counter
	deltaEvals        *Counter
	machinesSimulated *Counter
	machinesInherited *Counter
	migrations        *Counter
	migrants          *Counter
	runs              *Counter

	hypervolume    *Gauge
	epsilon        *Gauge
	spread         *Gauge
	frontSize      *Gauge
	arenaOccupancy *Gauge

	dirtyFraction *Histogram
	phaseSeconds  [NumPhases]*Histogram
}

// dirtyFractionBounds buckets the per-offspring dirty-machine fraction
// (dirty machines / total machines): fine resolution near zero, where
// delta evaluation pays off, coarser toward full-population rewrites.
func dirtyFractionBounds() []float64 {
	return []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1}
}

// phaseSecondsBounds buckets per-generation phase durations on a 1-3-10
// log scale from 10µs to 10s: generation phases span microseconds on
// toy instances to seconds at the 10⁶-task scale.
func phaseSecondsBounds() []float64 {
	return []float64{1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1, 3, 10}
}

// NewMetrics registers the standard instrument set on r and returns the
// feeding observer. Metric names are prefixed "tradeoff_".
func NewMetrics(r *Registry) *Metrics {
	m := &Metrics{
		generations:       r.Counter("tradeoff_generations_total", "NSGA-II generations stepped"),
		fullEvals:         r.Counter("tradeoff_full_evals_total", "evaluations that simulated every machine (no usable parent rows)"),
		deltaEvals:        r.Counter("tradeoff_delta_evals_total", "evaluations that could inherit parent contribution rows"),
		machinesSimulated: r.Counter("tradeoff_machines_simulated_total", "machine queues re-simulated during evaluation"),
		machinesInherited: r.Counter("tradeoff_machines_inherited_total", "machine contribution rows inherited from parent caches"),
		migrations:        r.Counter("tradeoff_migrations_total", "island migration edges performed"),
		migrants:          r.Counter("tradeoff_migrants_total", "individuals migrated between islands"),
		runs:              r.Counter("tradeoff_runs_total", "completed experiment runs"),
		hypervolume:       r.Gauge("tradeoff_front_hypervolume", "hypervolume of the latest observed front"),
		epsilon:           r.Gauge("tradeoff_front_epsilon", "additive epsilon of the latest front vs its predecessor"),
		spread:            r.Gauge("tradeoff_front_spread", "Deb spread of the latest observed front"),
		frontSize:         r.Gauge("tradeoff_front_size", "point count of the latest observed front"),
		arenaOccupancy:    r.Gauge("tradeoff_arena_occupancy", "in-use fraction of the population arena's slots"),
		dirtyFraction: r.Histogram("tradeoff_dirty_machine_fraction",
			"per-offspring fraction of machines touched by variation", dirtyFractionBounds()),
	}
	for p := Phase(0); int(p) < NumPhases; p++ {
		m.phaseSeconds[p] = r.Histogram("tradeoff_phase_"+p.String()+"_seconds",
			"per-generation wall time of the "+p.String()+" phase", phaseSecondsBounds())
	}
	return m
}

// ObserveGeneration implements Observer.
//
//detlint:hotpath
func (m *Metrics) ObserveGeneration(g GenerationStats) {
	m.generations.Inc()
	m.fullEvals.Add(uint64(g.FullEvals))
	m.deltaEvals.Add(uint64(g.DeltaEvals))
	m.machinesSimulated.Add(uint64(g.MachinesSimulated))
	m.machinesInherited.Add(uint64(g.MachinesInherited))
	m.arenaOccupancy.Set(g.ArenaOccupancy())
	m.hypervolume.Set(g.Indicators.Hypervolume)
	m.epsilon.Set(g.Indicators.Epsilon)
	m.spread.Set(g.Indicators.Spread)
	m.frontSize.Set(float64(g.Indicators.FrontSize))
	if g.NumMachines > 0 {
		inv := 1 / float64(g.NumMachines)
		for _, d := range g.DirtyCounts {
			m.dirtyFraction.Observe(float64(d) * inv)
		}
	}
	// Only profiled runs feed the phase histograms: an all-zero
	// PhaseNanos means no PhaseTimer was attached (or its clock is nil),
	// and recording those zeros would drown the real distribution.
	if g.PhaseTotalNanos() > 0 {
		for p, ns := range g.PhaseNanos {
			m.phaseSeconds[p].Observe(float64(ns) / 1e9)
		}
	}
}

// ObserveMigration implements Observer.
func (m *Metrics) ObserveMigration(ev MigrationEvent) {
	m.migrations.Inc()
	m.migrants.Add(uint64(ev.Count))
}

// ObserveRun implements Observer.
func (m *Metrics) ObserveRun(RunEvent) {
	m.runs.Inc()
}
