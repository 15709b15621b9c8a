package nsga2

import (
	"fmt"
	"sync"

	"tradeoff/internal/moea"
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
	// Async selects asynchronous steady-state stepping for Run: each
	// island advances on its own goroutine under a logical-clock
	// migration schedule — it exchanges elites over buffered ring-edge
	// mailboxes whenever its local generation counter crosses the
	// migration interval — with no per-generation barrier, so one slow
	// island no longer stalls the others between migrations. Results
	// and emitted telemetry are bit-identical to synchronous stepping
	// regardless of goroutine interleaving (DESIGN.md §13). Step always
	// uses the synchronous barrier; only Run honors Async.
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

// Islands is an island-model NSGA-II run.
type Islands struct {
	cfg        IslandConfig
	engines    []*Engine
	space      moea.Space
	generation int
	observer   obs.Observer
	// aggBase holds the cross-island counter sums at the last emitted
	// shard-stats event, so each migration tick reports per-tick diffs.
	aggBase ShardTick
	// phase is the shared phase profiler (nil when profiling is off):
	// every engine records into the same timer via atomic adds, and the
	// island layer itself attributes ring-migration time to
	// PhaseMigration. health is the optional async-health gauge board.
	phase  *obs.PhaseTimer
	health *obs.IslandBoard
}

// SetObserver attaches (or, with nil, detaches) a telemetry observer.
// The island model emits migration events plus one aggregated
// shard-stats GenerationStats per migration tick (Label "islands",
// summing every island's evaluation and arena counters): islands step
// in parallel goroutines, so forwarding their per-generation events
// would interleave nondeterministically, while the migration tick is a
// deterministic serialization point in both the synchronous and
// asynchronous modes. Attach a per-engine observer for
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
// adds aggregate across the parallel islands), and the island layer
// attributes ring-migration time — including, in the asynchronous mode,
// the ring-edge mailbox wait — to PhaseMigration. The aggregated
// "islands" shard stats deliberately carry no per-tick phase split:
// phase time is wall time, and splitting it per tick would make the
// emitted telemetry timing-dependent, breaking the documented sync ≡
// async bit-identity. Read the run-level rollup from the timer instead.
func (is *Islands) SetPhaseTimer(t *obs.PhaseTimer) {
	is.phase = t
	for _, eng := range is.engines {
		eng.SetPhaseTimer(t)
	}
}

// SetHealth attaches (or, with nil, detaches) the async-island health
// board. The islands update mailbox-depth and tick gauges at every
// migration tick in both stepping modes; gauges are monitoring data,
// outside the deterministic telemetry stream.
func (is *Islands) SetHealth(b *obs.IslandBoard) {
	is.health = b
}

// sumShards captures and sums every island's current counters.
func (is *Islands) sumShards() ShardTick {
	var agg ShardTick
	for _, eng := range is.engines {
		agg.Add(captureShard(eng, 0))
	}
	return agg
}

// emitShardStats diffs the aggregated counters against the previous
// tick's baseline and emits one GenerationStats labeled "islands"
// (assembled by ShardStatsEvent, shared with the distributed
// coordinator).
func (is *Islands) emitShardStats(gen int, agg ShardTick) {
	is.observer.ObserveGeneration(ShardStatsEvent(
		gen, is.engines[0].cfg.PopulationSize*len(is.engines),
		is.engines[0].eval.NumMachines(), agg, is.aggBase))
	is.aggBase = agg
}

// NewIslands builds the islands, splitting the random source so each
// island evolves an independent deterministic stream and distributing
// any seeds round-robin.
func NewIslands(eval *sched.Evaluator, cfg IslandConfig, src *rng.Source) (*Islands, error) {
	if err := cfg.fillAndValidate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("nsga2: nil random source")
	}
	is := &Islands{cfg: cfg}
	for k := 0; k < cfg.Islands; k++ {
		ecfg := cfg.Engine
		// Round-robin seed distribution.
		var seeds []*sched.Allocation
		for si, s := range cfg.Engine.Seeds {
			if si%cfg.Islands == k {
				seeds = append(seeds, s)
			}
		}
		ecfg.Seeds = seeds
		eng, err := New(eval, ecfg, src.Split())
		if err != nil {
			return nil, fmt.Errorf("nsga2: island %d: %w", k, err)
		}
		is.engines = append(is.engines, eng)
	}
	is.space = is.engines[0].space
	return is, nil
}

// Generation returns the number of completed generations.
func (is *Islands) Generation() int { return is.generation }

// NumIslands returns the island count.
func (is *Islands) NumIslands() int { return len(is.engines) }

// Step advances every island by one generation in parallel, migrating
// elites around the ring at the configured interval.
func (is *Islands) Step() {
	var wg sync.WaitGroup
	for _, eng := range is.engines {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			e.Step()
		}(eng)
	}
	wg.Wait()
	is.generation++
	if is.cfg.Migrants > 0 && len(is.engines) > 1 && is.generation%is.cfg.MigrationInterval == 0 {
		is.migrate()
	}
}

// migrate sends each island's elites to its ring successor. Outbound
// elites are collected before any injection so migration order does not
// matter.
func (is *Islands) migrate() {
	t0 := is.phase.Start()
	k := len(is.engines)
	outbound := make([][]Individual, k)
	for i, eng := range is.engines {
		outbound[i] = eng.Elites(is.cfg.Migrants)
	}
	for i := range is.engines {
		dst := (i + 1) % k
		// Injection cannot fail: migrants come from a sibling engine on
		// the same evaluator.
		if err := is.engines[dst].Inject(outbound[i]); err != nil {
			panic(fmt.Sprintf("nsga2: ring migration failed: %v", err))
		}
		if is.observer != nil {
			is.observer.ObserveMigration(obs.MigrationEvent{
				Generation: is.generation,
				From:       i,
				To:         dst,
				Count:      len(outbound[i]),
			})
		}
	}
	is.phase.Record(obs.PhaseMigration, t0)
	for i := range is.engines {
		// Synchronous exchanges drain every edge inline, so depth is 0.
		is.health.SetMailboxDepth(i, 0)
		is.health.SetTick(i, is.generation)
	}
	if is.observer != nil {
		is.emitShardStats(is.generation, is.sumShards())
	}
}

// Run advances the islands by the given number of generations:
// barrier-synchronized Steps by default, the asynchronous logical-clock
// schedule when cfg.Async is set. Both modes end in the same state and
// emit the same telemetry.
//
//detlint:pure
func (is *Islands) Run(generations int) {
	if is.cfg.Async {
		is.runAsync(generations)
		return
	}
	for i := 0; i < generations; i++ {
		is.Step()
	}
}

// runAsync advances every island on its own goroutine with no
// per-generation barrier. Coordination happens only at logical-clock
// migration ticks — generations that are multiples of the migration
// interval. At its tick an island sends the elites of its own
// post-step state into its out-edge mailbox, then blocks until its
// predecessor's same-tick migrants arrive, and injects them
// (send-before-receive keeps the ring deadlock-free; the buffered edge
// lets a fast island run one full interval ahead of its successor).
//
// Determinism: island i's population after tick T depends only on its
// own rng stream and the migrants it received at ticks ≤ T, which are
// computed from its predecessor's pre-injection state at those ticks —
// a recursion over deterministic per-island histories that never
// involves goroutine timing. The synchronous mode computes exactly the
// same values (it also collects every outbound elite set before any
// injection), so the two modes are bit-identical (DESIGN.md §13).
// Telemetry is captured per island at its own ticks and emitted after
// the run in (generation, from) order, matching the synchronous event
// sequence.
func (is *Islands) runAsync(generations int) {
	if generations <= 0 {
		return
	}
	k := len(is.engines)
	interval := is.cfg.MigrationInterval
	start := is.generation
	target := start + generations
	firstTick, nticks := RingTicks(start, target, interval, is.cfg.Migrants, k)
	abort := newRingAbort()
	mail := make([]Mailbox, k)
	global := make([]int, k)
	for i := 0; i < k; i++ {
		mail[i] = newChanMailbox(abort)
		global[i] = i
	}
	ins := make([]Mailbox, k)
	for i := 0; i < k; i++ {
		ins[i] = mail[(i+k-1)%k]
	}
	recs, err := runRing(is.engines, global, ins, mail, abort,
		start, target, interval, is.cfg.Migrants, nticks, is.phase, is.health)
	if err != nil {
		// Channel-backed edges cannot fail; any error here is a bug.
		panic(fmt.Sprintf("nsga2: in-process ring failed: %v", err))
	}
	is.generation = target
	if is.observer == nil {
		return
	}
	// Emit per tick: the ring's migration events in from-ascending
	// order, then the aggregated shard stats — the same serialization
	// the synchronous mode produces inline.
	for t := 0; t < nticks; t++ {
		gen := firstTick + t*interval
		var agg ShardTick
		for i := 0; i < k; i++ {
			is.observer.ObserveMigration(obs.MigrationEvent{
				Generation: gen,
				From:       i,
				To:         (i + 1) % k,
				Count:      recs[i][t].Migrants,
			})
			agg.Add(recs[i][t])
		}
		is.emitShardStats(gen, agg)
	}
}

// FrontPoints returns the merged rank-1 objective vectors across all
// islands: the union of island fronts filtered to its nondominated set,
// sorted by the first objective in improving order.
func (is *Islands) FrontPoints() [][]float64 {
	var union [][]float64
	for _, eng := range is.engines {
		union = append(union, eng.FrontPoints()...)
	}
	if len(union) == 0 {
		return nil
	}
	front := is.space.ParetoFront(union)
	out := make([][]float64, len(front))
	for i, idx := range front {
		out[i] = union[idx]
	}
	return out
}

// ParetoFront returns deep copies of the merged nondominated individuals
// across all islands, sorted by the first objective in improving order.
func (is *Islands) ParetoFront() []Individual {
	var union []Individual
	for _, eng := range is.engines {
		union = append(union, eng.ParetoFront()...)
	}
	return MergeFronts(is.space, union)
}
