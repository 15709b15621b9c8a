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

// Ring-edge mailboxes and the island-shard runner: the only way islands
// step. The logical-clock schedule (DESIGN.md §13) only ever touches a
// ring edge through the Mailbox interface, so the same stepping loop
// drives both the in-process island model (a shard over the whole ring,
// channel-backed edges) and a distributed shard of the ring whose
// boundary edges are carried over a wire by internal/dist (DESIGN.md
// §15).

// Mailbox is one directed ring edge of the island model: at each
// logical migration tick the sending island delivers exactly one elite
// batch and the receiving island consumes exactly one. Implementations
// must preserve per-edge FIFO order and hold at most one unconsumed
// delivery; the in-process implementation buffers that one, so a fast
// island can run a full migration interval ahead of its successor.
//
// Ownership: a delivery's slice, and the genomes and objective vectors
// of its individuals, stay the sender's. The receiver must be done
// reading a delivery before its next Recv on the edge. The sender
// rewrites a delivery only after two later Sends on the edge have
// returned: the second of them could only return once the receiver had
// taken the first, so it had finished the delivery before (DESIGN.md
// §13). A transport that encodes or copies a delivery inside Send
// leaves the buffers free as soon as Send returns.
type Mailbox interface {
	// Send delivers one tick's elites to the edge, blocking while the
	// previous delivery is still unconsumed.
	Send(elites []Individual) error
	// Recv blocks until the predecessor's same-tick elites arrive.
	Recv() ([]Individual, error)
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
// run's abort broadcast. It hands the sender's slice over as is; the
// Mailbox ownership rule keeps the sender from rewriting it early.
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

// captureShard reads one engine's cumulative counters. Each island
// captures its own shard on its own goroutine; the values depend only
// on that island's deterministic history, never on interleaving.
//
//detlint:hotpath
func captureShard(eng *Engine, sent int) ShardTick {
	ts := ShardTick{Sess: eng.sessionStats(), Migrants: sent}
	ts.ArenaInUse, ts.ArenaSlots = eng.arena.occupancy()
	return ts
}

// shardStatsEvent diffs the aggregated cross-island counters against
// the previous tick's baseline and assembles the GenerationStats event
// the island model emits per migration tick (Label "islands"). The
// front and indicator fields stay empty: a merged front at an interior
// tick is not observable while islands step independently, and the
// in-process and distributed runs must emit identical sequences.
func shardStatsEvent(gen, population, numMachines int, agg, base ShardTick) obs.GenerationStats {
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
		ArenaInUse:        agg.ArenaInUse,
		ArenaSlots:        agg.ArenaSlots,
		NumMachines:       numMachines,
	}
}

// EmitTicks emits one ring run's telemetry to o, for the run that
// started at generation start: per logical tick, the ring's migration
// events in from-ascending order, then one aggregated "islands"
// GenerationStats. recs[i][t] is global island i's record at the run's
// t-th tick, over the whole ring; population is the whole ring's. base
// holds the counter sums at the last emitted tick and advances with
// every event. The in-process island model and the distributed
// coordinator both emit through here, so their sequences are identical
// by construction. A nil observer emits nothing.
func EmitTicks(o obs.Observer, recs [][]ShardTick, start, interval, population, numMachines int, base *ShardTick) {
	if o == nil || len(recs) == 0 {
		return
	}
	k, first := len(recs), firstTickAfter(start, interval)
	for t := range recs[0] {
		gen := first + t*interval
		var agg ShardTick
		for i := 0; i < k; i++ {
			o.ObserveMigration(obs.MigrationEvent{
				Generation: gen,
				From:       i,
				To:         (i + 1) % k,
				Count:      recs[i][t].Migrants,
			})
			agg.Add(recs[i][t])
		}
		o.ObserveGeneration(shardStatsEvent(gen, population, numMachines, agg, *base))
		*base = agg
	}
}

// firstTickAfter returns the first logical migration tick after
// generation start.
func firstTickAfter(start, interval int) int { return (start/interval + 1) * interval }

// RingTicks returns the logical migration ticks in (start, target]:
// the first tick and the tick count. Migration is disabled entirely
// (0 ticks) when the ring has a single island or sends no migrants.
// Shared with internal/dist, whose coordinator and workers must agree
// on the tick schedule without exchanging it.
func RingTicks(start, target, interval, migrants, islands int) (firstTick, nticks int) {
	firstTick = firstTickAfter(start, interval)
	if migrants > 0 && islands > 1 {
		for g := firstTick; g <= target; g += interval {
			nticks++
		}
	}
	return firstTick, nticks
}

// migrantBufs is the number of send buffers each island rotates through,
// one per tick. Three is the fewest the Mailbox ownership rule allows:
// tick T's buffer is rewritten at tick T+3, after the Send at T+2 has
// returned.
const migrantBufs = 3

// ring is a shard's reusable stepping state: its ring-edge mailboxes,
// per-island tick records and migrant buffers, the current Run's
// schedule, and one goroutine body per island. Every completed Run
// leaves the mailboxes drained (each tick's send is consumed by the
// receiver at its own same-numbered tick), so they carry over to the
// next Run and a warm Islands.Step allocates nothing. A failed Run drops
// the ring: its abort is tripped and its edges may still hold migrants.
type ring struct {
	abort   *ringAbort
	in, out []Mailbox
	recs    [][]ShardTick
	errs    []error
	wg      sync.WaitGroup

	// The current Run's schedule, set before the islands start.
	start, target, firstTick, nticks int
	// migrants[i][b] is island i's b-th send buffer: the elites it packs
	// at a tick whose number (generation / interval) is b modulo
	// migrantBufs. Empty when the ring migrates nothing.
	migrants [][migrantBufs][]Individual
	// islands[i] runs island i for the current Run; built with the ring.
	islands []func()
}

// newRing wires the shard's interior edges, plus the wrap edge when the
// shard covers the whole ring (a partial shard's boundary edges are the
// caller's, set per Run), and builds each island's send buffers and
// goroutine body.
//
// Island i's body advances it from r.start to r.target. At each of the
// Run's r.nticks logical migration ticks (r.firstTick, then every
// interval) the island packs the elites of its own post-step,
// pre-injection state into its send buffer for the tick and sends them
// into its out edge, then blocks on its in edge and injects what
// arrives (send-before-receive keeps the ring deadlock-free).
// recs[i][t] captures the island's counters at its t-th tick.
//
// Determinism: island i's population after tick T depends only on its
// own rng stream and the migrants it received at ticks ≤ T, which are
// computed from its predecessor's pre-injection state at those ticks —
// a recursion over deterministic per-island histories that never
// involves goroutine timing (DESIGN.md §13).
//
//detlint:goroutines
func (s *IslandShard) newRing(whole bool) *ring {
	n := len(s.engines)
	r := &ring{
		abort:    newRingAbort(),
		in:       make([]Mailbox, n),
		out:      make([]Mailbox, n),
		recs:     make([][]ShardTick, n),
		errs:     make([]error, n),
		migrants: make([][migrantBufs][]Individual, n),
		islands:  make([]func(), n),
	}
	for i := 0; i+1 < n; i++ {
		m := newChanMailbox(r.abort)
		r.out[i], r.in[i+1] = m, m
	}
	if whole {
		m := newChanMailbox(r.abort)
		r.out[n-1], r.in[0] = m, m
	}
	migrates := s.cfg.Migrants > 0 && s.cfg.Islands > 1
	recs, errs, interval := r.recs, r.errs, s.cfg.MigrationInterval
	for i, eng := range s.engines {
		if migrates {
			for b := range r.migrants[i] {
				r.migrants[i][b] = eng.newMigrants(min(s.cfg.Migrants, len(eng.pop)))
			}
		}
		r.islands[i] = func() {
			defer r.wg.Done()
			i, eng := i, eng // goroutine-local: this body's own slot and engine
			in, out, bufs := r.in[i], r.out[i], &r.migrants[i]
			phase := s.phase
			tick, t := r.firstTick, 0
			for g := r.start + 1; g <= r.target; g++ {
				eng.Step()
				if t == r.nticks || g != tick {
					continue
				}
				tick += interval
				// Only the migration work is timed, elite packing and
				// injection: the ring-edge wait between them lands in the
				// step's residual, so one island's wait is never counted
				// on top of its siblings' step phases.
				t0 := phase.Start()
				elites := bufs[g/interval%migrantBufs]
				eng.packElites(elites)
				busy := phase.Start() - t0
				if err := out.Send(elites); err != nil {
					errs[i] = err
					r.abort.trip()
					return
				}
				inbound, err := in.Recv()
				if err != nil {
					errs[i] = err
					r.abort.trip()
					return
				}
				t1 := phase.Start()
				if err := eng.Inject(inbound); err != nil {
					panic(fmt.Sprintf("nsga2: ring migration failed: %v", err))
				}
				phase.Add(obs.PhaseMigration, busy+phase.Start()-t1)
				recs[i][t] = captureShard(eng, len(elites))
				t++
			}
		}
	}
	return r
}

// IslandShard is a contiguous slice [Lo, Hi) of an island-model ring,
// run inside one process. Interior ring edges are in-process channels;
// the two boundary edges (into island Lo, out of island Hi-1) are
// whatever Mailbox the caller supplies — internal/dist carries them over
// a socket. A shard covering the whole ring wires its own wrap edge:
// Islands is exactly that.
type IslandShard struct {
	cfg        IslandConfig
	engines    []*Engine
	lo, hi     int
	space      moea.Space
	generation int
	// phase is the shared phase profiler, nil unless the in-process
	// island model attaches one (distributed workers run without).
	phase *obs.PhaseTimer
	// ring is built by the first Run and reused until a Run fails.
	ring *ring
}

// NewIslandShard builds the engines for the ring slice [lo, hi) of a
// cfg.Islands-island ring. The random source is split once per ring
// position in global order and engine seeds are distributed round-robin
// by global island index, so every shard partition of the same ring,
// including the one-shard partition NewIslands builds, evolves
// bit-identical islands.
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
	// Each engine packed its share of the seeds; drop the shard's
	// reference to them too.
	s.cfg.Engine.Seeds = nil
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
// under the logical-clock schedule. in feeds island Lo's boundary edge
// and out drains island Hi-1's; both may be nil when the shard covers
// the whole ring (the wrap edge is wired internally), and both are
// ignored when migration is disabled. The returned records hold each
// island's counters at each logical tick, for the ring's aggregated
// telemetry; they are reused by the next Run.
func (s *IslandShard) Run(generations int, in, out Mailbox) ([][]ShardTick, error) {
	if generations <= 0 {
		return nil, nil
	}
	n := len(s.engines)
	start := s.generation
	target := start + generations
	firstTick, nticks := RingTicks(start, target, s.cfg.MigrationInterval, s.cfg.Migrants, s.cfg.Islands)
	whole := s.lo == 0 && s.hi == s.cfg.Islands
	if !whole && nticks > 0 && (in == nil || out == nil) {
		return nil, fmt.Errorf("nsga2: shard [%d, %d) of %d islands needs boundary mailboxes", s.lo, s.hi, s.cfg.Islands)
	}
	if s.ring == nil {
		s.ring = s.newRing(whole)
	}
	r := s.ring
	if !whole {
		r.in[0], r.out[n-1] = in, out
	}
	for i := range r.recs {
		if cap(r.recs[i]) < nticks {
			r.recs[i] = make([]ShardTick, nticks)
		}
		r.recs[i] = r.recs[i][:nticks]
		r.errs[i] = nil
	}
	r.start, r.target, r.firstTick, r.nticks = start, target, firstTick, nticks
	if err := s.runRing(r); err != nil {
		s.ring = nil
		return nil, err
	}
	s.generation = target
	return r.recs, nil
}

// runRing advances every shard island through the Run r describes, each
// on its own goroutine (its body from newRing) with no per-generation
// barrier. A mailbox error aborts the whole ring and is reported from
// the lowest-indexed failing island.
func (s *IslandShard) runRing(r *ring) error {
	errs := r.errs
	r.wg.Add(len(r.islands))
	for _, run := range r.islands {
		go run()
	}
	r.wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, errRingAborted) {
			return fmt.Errorf("nsga2: island %d: %w", s.lo+i, err)
		}
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("nsga2: island %d: %w", s.lo+i, err)
		}
	}
	return nil
}

// Baselines captures every shard island's current cumulative counters,
// in global island order: the telemetry baseline the ring's first
// emitted tick diffs against.
func (s *IslandShard) Baselines() []ShardTick {
	out := make([]ShardTick, len(s.engines))
	for i, eng := range s.engines {
		out[i] = captureShard(eng, 0)
	}
	return out
}

// Fronts returns each shard island's rank-1 front (Engine.ParetoFront:
// shared genomes, copied objectives), in global island order.
// Concatenating all shards' fronts in shard order reproduces the union
// Islands.ParetoFront builds before merging.
func (s *IslandShard) Fronts() [][]Individual {
	out := make([][]Individual, len(s.engines))
	for i, eng := range s.engines {
		out[i] = eng.ParetoFront()
	}
	return out
}

// Snapshots captures every shard island's engine snapshot, in global
// island order. It is only valid at Run boundaries, where every ring
// edge is provably drained.
func (s *IslandShard) Snapshots() []*Snapshot {
	out := make([]*Snapshot, len(s.engines))
	for i, eng := range s.engines {
		out[i] = eng.Snapshot()
	}
	return out
}

// Restore resets the shard to the given islands-level generation and
// per-island snapshots (one per shard island, in global island order).
// A negative generation is rejected: the tick schedule counts forward
// from zero.
func (s *IslandShard) Restore(generation int, snaps []*Snapshot) error {
	if generation < 0 {
		return fmt.Errorf("nsga2: snapshot generation %d, want >= 0", generation)
	}
	if len(snaps) != len(s.engines) {
		return fmt.Errorf("nsga2: snapshot has %d islands, shard [%d, %d) expects %d",
			len(snaps), s.lo, s.hi, len(s.engines))
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
