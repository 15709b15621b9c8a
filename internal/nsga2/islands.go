package nsga2

import (
	"fmt"

	"tradeoff/internal/obs"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// IslandConfig parameterizes an island-model run: several independent
// NSGA-II populations evolve in parallel (one goroutine per island) and
// periodically exchange elite chromosomes around a ring. Islands add
// coarse-grained parallelism on top of the engine's parallel fitness
// evaluation and preserve population diversity on large instances.
type IslandConfig struct {
	// Islands is the number of populations. Default 4.
	Islands int
	// MigrationInterval is the number of generations between migrations.
	// Default 25.
	MigrationInterval int
	// Migrants is the number of elites each island sends to its ring
	// neighbor per migration. Default 2.
	Migrants int
	// Async is retired and ignored: islands always step on the
	// logical-clock schedule (DESIGN.md §13), which the retired
	// per-generation barrier matched bit for bit. The field stays until
	// the end-to-end benchmark, which still sets it, next changes.
	Async bool
	// Engine configures every island (population size is per island).
	// Engine.Seeds are distributed round-robin across islands.
	Engine Config
}

func (c *IslandConfig) fillAndValidate() error {
	if c.Islands == 0 {
		c.Islands = 4
	}
	if c.MigrationInterval == 0 {
		c.MigrationInterval = 25
	}
	if c.Migrants == 0 {
		c.Migrants = 2
	}
	if c.Islands < 1 {
		return fmt.Errorf("nsga2: islands %d, want >= 1", c.Islands)
	}
	if c.MigrationInterval < 1 {
		return fmt.Errorf("nsga2: migration interval %d, want >= 1", c.MigrationInterval)
	}
	if c.Migrants < 0 {
		return fmt.Errorf("nsga2: migrants %d, want >= 0", c.Migrants)
	}
	return nil
}

// Normalized returns the configuration with the same defaults applied
// that NewIslands and NewIslandShard apply internally (island count,
// migration interval, migrant count, engine population). A distributed
// coordinator needs the normalized values to agree with its workers on
// the migration tick schedule and aggregated stats shape without
// re-implementing the defaulting rules.
func (c IslandConfig) Normalized() (IslandConfig, error) {
	if err := c.fillAndValidate(); err != nil {
		return c, err
	}
	c.Engine.fillDefaults()
	if err := c.Engine.validate(); err != nil {
		return c, err
	}
	return c, nil
}

// Islands is an island-model NSGA-II run in one process: an
// IslandShard over the whole ring [0, k), plus the ring's telemetry.
type Islands struct {
	shard    *IslandShard
	observer obs.Observer
	// aggBase holds the cross-island counter sums at the last emitted
	// shard-stats event, so each migration tick reports per-tick diffs.
	aggBase ShardTick
}

// SetObserver attaches (or, with nil, detaches) a telemetry observer.
// The island model emits migration events plus one aggregated
// shard-stats GenerationStats per migration tick (Label "islands",
// summing every island's evaluation and arena counters): islands step
// in parallel goroutines, so forwarding their per-generation events
// would interleave nondeterministically, while the migration tick is a
// deterministic serialization point. Attach a per-engine observer for
// generation-level telemetry of a single deterministic population.
func (is *Islands) SetObserver(o obs.Observer) {
	is.observer = o
	if o == nil {
		return
	}
	// Resync the aggregation baseline so pre-attach work (initial
	// evaluation, restores) is not attributed to the first tick.
	is.aggBase = is.sumShards()
}

// SetPhaseTimer attaches (or, with nil, detaches) a shared phase
// profiler: every island engine records its Step phases into t (atomic
// adds aggregate across the parallel islands), and each island
// attributes its elite extraction and injection at a migration tick to
// PhaseMigration. The aggregated "islands" shard stats deliberately
// carry no per-tick phase split: phase time is wall time, and splitting
// it per tick would make the emitted telemetry timing-dependent,
// breaking its bit-identity across runs. Read the run-level rollup from
// the timer instead.
func (is *Islands) SetPhaseTimer(t *obs.PhaseTimer) {
	is.shard.phase = t
	for _, eng := range is.shard.engines {
		eng.SetPhaseTimer(t)
	}
}

// sumShards sums every island's current counters.
func (is *Islands) sumShards() ShardTick {
	var agg ShardTick
	for _, b := range is.shard.Baselines() {
		agg.Add(b)
	}
	return agg
}

// NewIslands builds the islands, splitting the random source so each
// island evolves an independent deterministic stream and distributing
// any seeds round-robin.
func NewIslands(eval *sched.Evaluator, cfg IslandConfig, src *rng.Source) (*Islands, error) {
	if err := cfg.fillAndValidate(); err != nil {
		return nil, err
	}
	shard, err := NewIslandShard(eval, cfg, src, 0, cfg.Islands)
	if err != nil {
		return nil, err
	}
	return &Islands{shard: shard}, nil
}

// Generation returns the number of completed generations.
func (is *Islands) Generation() int { return is.shard.generation }

// Step advances every island by one generation, migrating elites around
// the ring when the generation is a migration tick.
func (is *Islands) Step() { is.Run(1) }

// Run advances the islands by the given number of generations on the
// logical-clock schedule, then emits the run's telemetry tick by tick.
//
//detlint:pure
func (is *Islands) Run(generations int) {
	s := is.shard
	start := s.generation
	recs, err := s.Run(generations, nil, nil)
	if err != nil {
		// Channel-backed edges cannot fail; any error here is a bug.
		panic(fmt.Sprintf("nsga2: in-process ring failed: %v", err))
	}
	EmitTicks(is.observer, recs, start, s.cfg.MigrationInterval,
		s.engines[0].cfg.PopulationSize*len(s.engines), s.engines[0].eval.NumMachines(), &is.aggBase)
}

// FrontPoints returns the merged rank-1 objective vectors across all
// islands: the union of island fronts filtered to its nondominated set,
// sorted by the first objective in improving order.
func (is *Islands) FrontPoints() [][]float64 {
	var union [][]float64
	for _, eng := range is.shard.engines {
		union = append(union, eng.FrontPoints()...)
	}
	if len(union) == 0 {
		return nil
	}
	front := is.shard.space.ParetoFront(union)
	out := make([][]float64, len(front))
	for i, idx := range front {
		out[i] = union[idx]
	}
	return out
}

// ParetoFront returns the merged nondominated individuals across all
// islands, sorted by the first objective in improving order. Like
// Engine.ParetoFront, each shares its island's genome and has a nil
// Alloc until Allocation materializes it.
func (is *Islands) ParetoFront() []Individual {
	var union []Individual
	for _, front := range is.shard.Fronts() {
		union = append(union, front...)
	}
	return MergeFronts(is.shard.space, union)
}
