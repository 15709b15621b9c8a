package obs

// Observer receives telemetry events from the NSGA-II engine, the island
// model, and the experiment runners. Implementations must treat every
// slice reachable from an event as borrowed: valid only for the duration
// of the call, recycled by the producer afterwards. Copy what you keep.
//
// Observers are pure consumers. The engine guarantees an attached
// observer never advances an rng stream and never changes results
// bit-for-bit; an observer must uphold its side by never mutating event
// payloads.
type Observer interface {
	// ObserveGeneration fires once per Engine.Step, after survivor
	// selection, with the post-step state.
	ObserveGeneration(g GenerationStats)
	// ObserveMigration fires once per island ring edge at every
	// migration tick, emitted in from-ascending order after the island
	// run that crossed the tick.
	ObserveMigration(m MigrationEvent)
	// ObserveRun fires once per completed experiment run, from the
	// serial aggregation phase of experiments.RunRepeats.
	ObserveRun(r RunEvent)
}

// GenerationStats is the per-generation telemetry payload. Front is a
// borrowed buffer owned by the engine.
type GenerationStats struct {
	// Label identifies the emitting engine ("" for a plain engine,
	// "island3" style labels under the island model, dataset/config
	// labels under experiment runners).
	Label string
	// Generation is the engine's generation counter after the step.
	Generation int
	// Population is the steady-state population size.
	Population int
	// Front holds the current rank-1 objective vectors
	// [utility, energy], sorted by descending utility. Borrowed.
	Front [][]float64
	// FullEvals and DeltaEvals count offspring evaluations this
	// generation without and with a usable parent contribution cache;
	// FullEvals + DeltaEvals is the offspring count.
	FullEvals  int
	DeltaEvals int
	// CacheHits and CacheMisses are retired and always 0. They counted
	// the whole-chromosome fitness cache's lookups, which was removed
	// because its hit ratio stayed below 2% on the benchmark workloads
	// (DESIGN.md §11). The trace no longer writes them (schema v5); they
	// stay only because the end-to-end benchmark (bench/layers.go) still
	// reads them, and go with its next change.
	CacheHits   int
	CacheMisses int
	// ArenaInUse and ArenaSlots describe the population arena's
	// structure-of-arrays slots: handed out vs carved in total.
	ArenaInUse int
	ArenaSlots int
	// MachinesSimulated and MachinesInherited split per-machine work
	// inside the evaluation kernels: simulated machines were re-run,
	// inherited machines reused the parent's cached contribution rows.
	MachinesSimulated int
	MachinesInherited int
	// MachineCacheHits and MachineCacheMisses are retired and always 0,
	// and benchmark-only, like CacheHits: they counted the machine-bucket
	// cache's lookups, removed because its lookups cost more than its
	// hits saved (DESIGN.md §12).
	MachineCacheHits   int
	MachineCacheMisses int
	// TypedTasks and TypedRuns are retired and always 0, and
	// benchmark-only, like CacheHits: they counted the tasks and
	// same-type runs the typed kernel walked, but the kernel loads each
	// task's ETC/EEC cell regardless of runs, so the ratio measured
	// nothing it saved (DESIGN.md §12).
	TypedTasks int
	TypedRuns  int
	// NumMachines is the machine count of the problem instance.
	NumMachines int
	// PhaseNanos[p] is the nanoseconds Engine.Step spent in phase
	// Phase(p) this generation — all zero when no PhaseTimer is
	// attached (or its clock is nil). A by-value fixed array: nothing
	// here is borrowed.
	PhaseNanos PhaseTotals
	// Indicators holds the convergence indicators for Front, if an
	// indicator kernel is active (all-zero otherwise).
	Indicators Indicators
}

// PhaseTotalNanos sums the per-phase step times, 0 when no phase
// profiler was attached.
func (g *GenerationStats) PhaseTotalNanos() int64 {
	var sum int64
	for _, ns := range g.PhaseNanos {
		sum += ns
	}
	return sum
}

// ArenaOccupancy returns the in-use fraction of the population arena's
// slots, or 0 when nothing has been carved.
func (g *GenerationStats) ArenaOccupancy() float64 {
	if g.ArenaSlots > 0 {
		return float64(g.ArenaInUse) / float64(g.ArenaSlots)
	}
	return 0
}

// Indicators bundles the per-generation convergence indicators computed
// by IndicatorKernel.
type Indicators struct {
	// Hypervolume is the 2-D dominated area w.r.t. the kernel's
	// reference point. Larger is better.
	Hypervolume float64
	// Epsilon is the additive ε-indicator of this front measured
	// against the previous generation's front (how far this front is
	// from weakly dominating the previous one). Values ≤ 0 mean the
	// new front weakly dominates the old. Zero for the first observed
	// front.
	Epsilon float64
	// Spread is Deb's Δ diversity indicator (0 for fronts with fewer
	// than 3 points). Lower is more evenly spaced.
	Spread float64
	// FrontSize is the number of rank-1 points.
	FrontSize int
}

// MigrationEvent describes one directed migration edge during an island
// generation. Emitted from the serial migration phase, so event order is
// deterministic: ascending source island within one exchange.
type MigrationEvent struct {
	// Generation is the shared island-model generation counter after
	// the step that triggered the exchange.
	Generation int
	// From and To are island indices (ring topology: To is the
	// successor of From).
	From, To int
	// Count is the number of migrant individuals injected.
	Count int
}

// RunEvent describes one completed experiment run from RunRepeats.
// Emitted serially in grid order (variant-major, then repeat), so event
// order is deterministic regardless of worker count.
type RunEvent struct {
	// Dataset names the data set the run evolved on.
	Dataset string
	// Variant names the configuration variant ("" when unvaried).
	Variant string
	// Run is the repeat index within the variant.
	Run int
	// Seed is the run's root seed.
	Seed uint64
	// Hypervolume is the final front's hypervolume w.r.t. the
	// cross-run reference point.
	Hypervolume float64
	// MaxUtility is the best utility value on the final front.
	MaxUtility float64
	// FrontSize is the final front's size.
	FrontSize int
}

// Multi fans every event out to each member observer in order. A nil or
// empty Multi is a valid no-op observer, and nil members are skipped —
// a hand-built Multi{trace, nil, flight} fans out to the two live
// members (Combine drops the nils up front instead).
type Multi []Observer

// ObserveGeneration implements Observer.
func (m Multi) ObserveGeneration(g GenerationStats) {
	for _, o := range m {
		if o != nil {
			o.ObserveGeneration(g)
		}
	}
}

// ObserveMigration implements Observer.
func (m Multi) ObserveMigration(ev MigrationEvent) {
	for _, o := range m {
		if o != nil {
			o.ObserveMigration(ev)
		}
	}
}

// ObserveRun implements Observer.
func (m Multi) ObserveRun(r RunEvent) {
	for _, o := range m {
		if o != nil {
			o.ObserveRun(r)
		}
	}
}

// Combine returns an observer that forwards to every non-nil argument,
// or nil when none remain — so callers can pass the result around and
// rely on the engine's nil check as the single disable switch.
func Combine(obs ...Observer) Observer {
	var kept Multi
	for _, o := range obs {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

// Labeled wraps an observer, overriding the Label of every
// GenerationStats that passes through. Experiment runners use it to tag
// engine-level events with the dataset/variant that produced them.
type Labeled struct {
	Label string
	Next  Observer
}

// ObserveGeneration implements Observer.
func (l Labeled) ObserveGeneration(g GenerationStats) {
	g.Label = l.Label
	l.Next.ObserveGeneration(g)
}

// ObserveMigration implements Observer.
func (l Labeled) ObserveMigration(ev MigrationEvent) {
	l.Next.ObserveMigration(ev)
}

// ObserveRun implements Observer.
func (l Labeled) ObserveRun(r RunEvent) {
	l.Next.ObserveRun(r)
}
