package nsga2

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"tradeoff/internal/moea"
	"tradeoff/internal/obs"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// Ring-edge mailboxes and the island-shard runner. The asynchronous
// logical-clock schedule (DESIGN.md §13) only ever touches a ring edge
// through the Mailbox interface, so the same stepping loop drives both
// the in-process island model (channel-backed edges) and a distributed
// shard of the ring whose boundary edges are carried over a wire by
// internal/dist (DESIGN.md §15).

// Mailbox is one directed ring edge of the island model: at each
// logical migration tick the sending island delivers exactly one elite
// batch and the receiving island consumes exactly one. Implementations
// must preserve per-edge FIFO order; the in-process implementation
// buffers one delivery so a fast island can run a full migration
// interval ahead of its successor.
type Mailbox interface {
	// Send delivers one tick's elites to the edge, blocking while the
	// previous delivery is still unconsumed.
	Send(elites []Individual) error
	// Recv blocks until the predecessor's same-tick elites arrive.
	Recv() ([]Individual, error)
	// Depth reports currently queued deliveries, for health gauges only
	// (0 when the transport cannot observe its queue).
	Depth() int
}

// errRingAborted is the secondary failure islands observe when another
// island of the same run has already failed its ring edge.
var errRingAborted = errors.New("nsga2: ring migration aborted by a sibling island")

// ringAbort broadcasts a ring-wide cancellation so channel-backed edges
// cannot block forever after a wire-backed boundary edge fails.
type ringAbort struct {
	once sync.Once
	ch   chan struct{}
}

func newRingAbort() *ringAbort { return &ringAbort{ch: make(chan struct{})} }

func (a *ringAbort) trip() { a.once.Do(func() { close(a.ch) }) }

// chanMailbox is the in-process ring edge: a one-deep channel plus the
// run's abort broadcast.
type chanMailbox struct {
	ch    chan []Individual
	abort *ringAbort
}

func newChanMailbox(a *ringAbort) *chanMailbox {
	return &chanMailbox{ch: make(chan []Individual, 1), abort: a}
}

//detlint:hotpath
func (m *chanMailbox) Send(elites []Individual) error {
	select {
	case m.ch <- elites:
		return nil
	case <-m.abort.ch:
		return errRingAborted
	}
}

//detlint:hotpath
func (m *chanMailbox) Recv() ([]Individual, error) {
	select {
	case elites := <-m.ch:
		return elites, nil
	case <-m.abort.ch:
		return nil, errRingAborted
	}
}

func (m *chanMailbox) Depth() int { return len(m.ch) }

// ShardTick is one island's cumulative counters captured at a logical
// migration tick (or the cross-island sum of them). The flat exported
// form is what internal/dist carries over the wire, so a distributed
// coordinator can aggregate worker shards into the same "islands"
// telemetry the in-process model emits.
type ShardTick struct {
	// Sess is the engine's cumulative evaluation-session counters.
	Sess sched.DeltaStats
	// Arena occupancy at the tick.
	ArenaInUse, ArenaSlots int
	// Migrants is the elite count this island sent at the tick (not
	// summed by Add: aggregated sums report per-edge counts separately).
	Migrants int
}

// Add accumulates o into t (arena slots sum across shards; Migrants
// stays per-island).
//
//detlint:hotpath
func (t *ShardTick) Add(o ShardTick) {
	t.Sess.Add(o.Sess)
	t.ArenaInUse += o.ArenaInUse
	t.ArenaSlots += o.ArenaSlots
}

// captureShard reads one engine's cumulative counters. In async runs
// each island captures its own shard on its own goroutine; the values
// depend only on that island's deterministic history, never on
// interleaving.
//
//detlint:hotpath
func captureShard(eng *Engine, sent int) ShardTick {
	ts := ShardTick{Sess: eng.sessionStats(), Migrants: sent}
	ts.ArenaInUse, ts.ArenaSlots = eng.arena.occupancy()
	return ts
}

// ShardStatsEvent diffs the aggregated cross-island counters against
// the previous tick's baseline and assembles the GenerationStats event
// the island model emits per migration tick (Label "islands"). The
// front and indicator fields stay empty: a merged front at an interior
// tick is not observable in the asynchronous mode, and all stepping
// modes — synchronous, asynchronous, distributed — must emit identical
// sequences.
func ShardStatsEvent(gen, population, numMachines int, agg, base ShardTick) obs.GenerationStats {
	diff := agg.Sess
	diff.Sub(base.Sess)
	return obs.GenerationStats{
		Label:             "islands",
		Generation:        gen,
		Population:        population,
		FullEvals:         int(diff.FullEvals),
		DeltaEvals:        int(diff.DeltaEvals),
		MachinesSimulated: int(diff.MachinesSimulated),
		MachinesInherited: int(diff.MachinesInherited),
		TypedTasks:        int(diff.TypedTasks),
		TypedRuns:         int(diff.TypedRuns),
		ArenaInUse:        agg.ArenaInUse,
		ArenaSlots:        agg.ArenaSlots,
		NumMachines:       numMachines,
	}
}

// RingTicks returns the logical migration ticks in (start, target]:
// the first tick and the tick count. Migration is disabled entirely
// (0 ticks) when the ring has a single island or sends no migrants.
// Shared with internal/dist, whose coordinator and workers must agree
// on the tick schedule without exchanging it.
func RingTicks(start, target, interval, migrants, islands int) (firstTick, nticks int) {
	firstTick = (start/interval + 1) * interval
	if migrants > 0 && islands > 1 {
		for g := firstTick; g <= target; g += interval {
			nticks++
		}
	}
	return firstTick, nticks
}

// runRing advances a set of islands under the asynchronous
// logical-clock schedule: every island steps on its own goroutine with
// no per-generation barrier, and at each logical migration tick sends
// the elites of its own post-step state into its out edge before
// blocking on its in edge (send-before-receive keeps the ring
// deadlock-free). global[i] is island i's position in the full ring
// (used only for health gauges); recs[i][t] captures island i's
// counters at its t-th tick. A mailbox error aborts the whole ring and
// is reported from the lowest-indexed failing island.
func runRing(engines []*Engine, global []int, in, out []Mailbox, abort *ringAbort,
	start, target, interval, migrants, nticks int,
	phase *obs.PhaseTimer, health *obs.IslandBoard) ([][]ShardTick, error) {
	n := len(engines)
	recs := make([][]ShardTick, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		recs[i] = make([]ShardTick, nticks)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng, gi := engines[i], global[i]
			t := 0
			for g := start + 1; g <= target; g++ {
				eng.Step()
				if nticks == 0 || g%interval != 0 {
					continue
				}
				// Elites reflect this island's own post-step,
				// pre-injection state, exactly as in the synchronous
				// collect-then-inject phase. The PhaseMigration bracket
				// includes the ring-edge wait — in the async mode that
				// wait IS the migration cost.
				t0 := phase.Start()
				elites := eng.Elites(migrants)
				health.SetMailboxDepth(gi, out[i].Depth()+1)
				if err := out[i].Send(elites); err != nil {
					errs[i] = err
					abort.trip()
					return
				}
				inbound, err := in[i].Recv()
				if err != nil {
					errs[i] = err
					abort.trip()
					return
				}
				if err := eng.Inject(inbound); err != nil {
					panic(fmt.Sprintf("nsga2: ring migration failed: %v", err))
				}
				phase.Record(obs.PhaseMigration, t0)
				health.SetMailboxDepth(gi, out[i].Depth())
				health.SetTick(gi, g)
				recs[i][t] = captureShard(eng, len(elites))
				t++
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, errRingAborted) {
			return nil, fmt.Errorf("nsga2: island %d: %w", global[i], err)
		}
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("nsga2: island %d: %w", global[i], err)
		}
	}
	return recs, nil
}

// IslandShard is a contiguous slice [Lo, Hi) of an island-model ring,
// run inside one process while the rest of the ring lives elsewhere.
// Interior ring edges are in-process channels; the two boundary edges
// (into island Lo, out of island Hi-1) are whatever Mailbox the caller
// supplies — internal/dist carries them over a socket. A shard covering
// the whole ring wires its own wrap edge and is equivalent to
// Islands.Run in async mode.
type IslandShard struct {
	cfg        IslandConfig
	engines    []*Engine
	lo, hi     int
	space      moea.Space
	generation int
}

// NewIslandShard builds the engines for the ring slice [lo, hi) of a
// cfg.Islands-island ring. The random source is split once per ring
// position in global order and engine seeds are distributed round-robin
// by global island index — exactly as NewIslands does — so every shard
// partition of the same ring, including the trivial one-shard
// partition, evolves bit-identical islands.
func NewIslandShard(eval *sched.Evaluator, cfg IslandConfig, src *rng.Source, lo, hi int) (*IslandShard, error) {
	if err := cfg.fillAndValidate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("nsga2: nil random source")
	}
	if lo < 0 || hi > cfg.Islands || lo >= hi {
		return nil, fmt.Errorf("nsga2: shard range [%d, %d) outside ring of %d islands", lo, hi, cfg.Islands)
	}
	s := &IslandShard{cfg: cfg, lo: lo, hi: hi}
	for k := 0; k < cfg.Islands; k++ {
		// Every split is consumed even for islands outside the shard, so
		// the in-shard streams match the single-process run.
		sub := src.Split()
		if k < lo || k >= hi {
			continue
		}
		ecfg := cfg.Engine
		var seeds []*sched.Allocation
		for si, sd := range cfg.Engine.Seeds {
			if si%cfg.Islands == k {
				seeds = append(seeds, sd)
			}
		}
		ecfg.Seeds = seeds
		eng, err := New(eval, ecfg, sub)
		if err != nil {
			return nil, fmt.Errorf("nsga2: island %d: %w", k, err)
		}
		s.engines = append(s.engines, eng)
	}
	s.space = s.engines[0].space
	return s, nil
}

// Lo returns the shard's first global island index.
func (s *IslandShard) Lo() int { return s.lo }

// Hi returns one past the shard's last global island index.
func (s *IslandShard) Hi() int { return s.hi }

// Generation returns the number of completed generations.
func (s *IslandShard) Generation() int { return s.generation }

// Run advances the shard's islands by the given number of generations
// under the asynchronous logical-clock schedule. in feeds island Lo's
// boundary edge and out drains island Hi-1's; both may be nil when the
// shard covers the whole ring (the wrap edge is wired internally), and
// both are ignored when migration is disabled. The returned records
// hold each island's counters at each logical tick, for the
// coordinator's aggregated telemetry.
func (s *IslandShard) Run(generations int, in, out Mailbox) ([][]ShardTick, error) {
	if generations <= 0 {
		return nil, nil
	}
	n := s.hi - s.lo
	start := s.generation
	target := start + generations
	_, nticks := RingTicks(start, target, s.cfg.MigrationInterval, s.cfg.Migrants, s.cfg.Islands)
	abort := newRingAbort()
	ins := make([]Mailbox, n)
	outs := make([]Mailbox, n)
	global := make([]int, n)
	for li := 0; li < n; li++ {
		global[li] = s.lo + li
	}
	for li := 0; li+1 < n; li++ {
		m := newChanMailbox(abort)
		outs[li], ins[li+1] = m, m
	}
	switch {
	case s.lo == 0 && s.hi == s.cfg.Islands:
		m := newChanMailbox(abort)
		outs[n-1], ins[0] = m, m
	case nticks == 0:
		// Migration disabled: the boundary edges are never touched.
	case in == nil || out == nil:
		return nil, fmt.Errorf("nsga2: shard [%d, %d) of %d islands needs boundary mailboxes", s.lo, s.hi, s.cfg.Islands)
	default:
		ins[0], outs[n-1] = in, out
	}
	recs, err := runRing(s.engines, global, ins, outs, abort,
		start, target, s.cfg.MigrationInterval, s.cfg.Migrants, nticks, nil, nil)
	if err != nil {
		return nil, err
	}
	s.generation = target
	return recs, nil
}

// Baselines captures every shard island's current cumulative counters,
// in global island order. The distributed coordinator sums baselines
// across workers to seed its telemetry diffs, mirroring
// Islands.SetObserver's baseline resync.
func (s *IslandShard) Baselines() []ShardTick {
	out := make([]ShardTick, len(s.engines))
	for i, eng := range s.engines {
		out[i] = captureShard(eng, 0)
	}
	return out
}

// Fronts returns each shard island's rank-1 front (deep copies), in
// global island order. Concatenating all shards' fronts in shard order
// reproduces the union Islands.ParetoFront builds before merging.
func (s *IslandShard) Fronts() [][]Individual {
	out := make([][]Individual, len(s.engines))
	for i, eng := range s.engines {
		out[i] = eng.ParetoFront()
	}
	return out
}

// Snapshots captures every shard island's engine snapshot, in global
// island order. Like Islands.Snapshot, it is only valid at Run
// boundaries, where every ring edge is provably drained.
func (s *IslandShard) Snapshots() []*Snapshot {
	out := make([]*Snapshot, len(s.engines))
	for i, eng := range s.engines {
		out[i] = eng.Snapshot()
	}
	return out
}

// Restore resets the shard to the given islands-level generation and
// per-island snapshots (one per shard island, in global island order).
func (s *IslandShard) Restore(generation int, snaps []*Snapshot) error {
	if len(snaps) != len(s.engines) {
		return fmt.Errorf("nsga2: shard restore has %d snapshots, want %d", len(snaps), len(s.engines))
	}
	for i, sub := range snaps {
		if sub == nil {
			return fmt.Errorf("nsga2: island snapshot %d is nil", s.lo+i)
		}
		if err := s.engines[i].Restore(sub); err != nil {
			return fmt.Errorf("nsga2: island %d: %w", s.lo+i, err)
		}
	}
	s.generation = generation
	return nil
}

// MergeFronts filters a union of per-island fronts to its nondominated
// set and sorts it by the first objective in improving order — the
// merge step of Islands.ParetoFront, shared with the distributed
// coordinator so both paths return bit-identical fronts.
func MergeFronts(space moea.Space, union []Individual) []Individual {
	if len(union) == 0 {
		return nil
	}
	points := make([][]float64, len(union))
	for i := range union {
		points[i] = union[i].Objectives
	}
	keep := space.ParetoFront(points)
	out := make([]Individual, len(keep))
	for i, idx := range keep {
		out[i] = union[idx]
	}
	sort.SliceStable(out, func(a, b int) bool {
		x, y := out[a].Objectives[0], out[b].Objectives[0]
		if space.Senses[0] == moea.Maximize {
			return x > y
		}
		return x < y
	})
	return out
}
