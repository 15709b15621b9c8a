package nsga2

import (
	"reflect"
	"testing"

	"tradeoff/internal/obs"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// ringCfg builds an island config with explicit ring geometry.
func ringCfg(islands, interval, migrants, pop, workers int) IslandConfig {
	return IslandConfig{
		Islands:           islands,
		MigrationInterval: interval,
		Migrants:          migrants,
		Engine:            Config{PopulationSize: pop, Workers: workers},
	}
}

// frontsEqual compares two point lists bit for bit.
func frontsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

// requireIslandsIdentical asserts two runs ended in the same state:
// merged fronts and every island's own front, bit for bit.
func requireIslandsIdentical(t *testing.T, a, b *Islands, label string) {
	t.Helper()
	if a.Generation() != b.Generation() {
		t.Fatalf("%s: generations %d vs %d", label, a.Generation(), b.Generation())
	}
	if !frontsEqual(a.FrontPoints(), b.FrontPoints()) {
		t.Fatalf("%s: merged fronts differ", label)
	}
	for i := range a.shard.engines {
		if !frontsEqual(a.shard.engines[i].FrontPoints(), b.shard.engines[i].FrontPoints()) {
			t.Fatalf("%s: island %d fronts differ", label, i)
		}
	}
}

// requireEventsIdentical asserts two recorders saw the same migration
// and shard-stats sequences.
func requireEventsIdentical(t *testing.T, a, b *recorder, label string) {
	t.Helper()
	if !reflect.DeepEqual(a.migrations, b.migrations) {
		t.Fatalf("%s: migration sequences differ:\n%v\n%v", label, a.migrations, b.migrations)
	}
	if !reflect.DeepEqual(a.gens, b.gens) {
		t.Fatalf("%s: shard-stats sequences differ:\n%+v\n%+v", label, a.gens, b.gens)
	}
}

// barrierRing is the retired barrier-synchronous island runtime, kept
// as the reference the logical-clock ring must match: every island
// steps one generation, and at a migration tick every island's elites
// are collected before any island injects. It emits the telemetry the
// barrier runtime emitted inline: per tick, the ring's migration events
// in from-ascending order, then the aggregated shard stats.
type barrierRing struct {
	cfg     IslandConfig
	engines []*Engine
	gen     int
	rec     *recorder
	base    ShardTick
}

func newBarrierRing(t *testing.T, e *sched.Evaluator, cfg IslandConfig, seed uint64) *barrierRing {
	t.Helper()
	src := rng.New(seed)
	b := &barrierRing{cfg: cfg, rec: &recorder{}}
	for k := 0; k < cfg.Islands; k++ {
		eng, err := New(e, cfg.Engine, src.Split())
		if err != nil {
			t.Fatal(err)
		}
		b.engines = append(b.engines, eng)
		b.base.Add(captureShard(eng, 0))
	}
	return b
}

func (b *barrierRing) run(t *testing.T, generations int) {
	t.Helper()
	k := len(b.engines)
	for n := 0; n < generations; n++ {
		for _, eng := range b.engines {
			eng.Step()
		}
		b.gen++
		if b.cfg.Migrants == 0 || k == 1 || b.gen%b.cfg.MigrationInterval != 0 {
			continue
		}
		outbound := make([][]Individual, k)
		for i, eng := range b.engines {
			outbound[i] = eng.Elites(b.cfg.Migrants)
		}
		var agg ShardTick
		for i := range b.engines {
			dst := (i + 1) % k
			if err := b.engines[dst].Inject(outbound[i]); err != nil {
				t.Fatal(err)
			}
			b.rec.ObserveMigration(obs.MigrationEvent{Generation: b.gen, From: i, To: dst, Count: len(outbound[i])})
		}
		for _, eng := range b.engines {
			agg.Add(captureShard(eng, 0))
		}
		pop := b.engines[0].cfg.PopulationSize * k
		b.rec.ObserveGeneration(shardStatsEvent(b.gen, pop, b.engines[0].eval.NumMachines(), agg, b.base))
		b.base = agg
	}
}

// TestAsyncIslandsMatchSync: the logical-clock ring must be
// bit-identical to the barrier-synchronous reference — populations,
// fronts, and the full telemetry sequence — for several ring sizes and
// engine worker counts. This is the island-scheduling analogue of
// TestWorkerCountInvariance: goroutine interleaving must never leak
// into results.
func TestAsyncIslandsMatchSync(t *testing.T) {
	e := newEval(t, 40)
	for _, k := range []int{1, 2, 3, 4} {
		for _, workers := range []int{1, 3} {
			cfg := ringCfg(k, 4, 2, 8, workers)
			is, err := NewIslands(e, cfg, rng.New(77))
			if err != nil {
				t.Fatal(err)
			}
			rec := &recorder{}
			is.SetObserver(rec)
			is.Run(13) // 3 ticks (4, 8, 12) plus an off-tick tail

			ref := newBarrierRing(t, e, cfg, 77)
			ref.run(t, 13)

			if is.Generation() != ref.gen {
				t.Fatalf("k=%d w=%d: generation %d, barrier %d", k, workers, is.Generation(), ref.gen)
			}
			for i, eng := range ref.engines {
				if !frontsEqual(is.shard.engines[i].FrontPoints(), eng.FrontPoints()) {
					t.Fatalf("k=%d w=%d: island %d front differs from the barrier reference", k, workers, i)
				}
			}
			requireEventsIdentical(t, rec, ref.rec, "ring vs barrier")
		}
	}
}

// TestEveryTickRingMatchesSync: rings of three to five islands that
// migrate at every generation, run in several Runs, match the barrier
// reference. Every tick reuses a send buffer three ticks old, so this is
// the ring's tightest use of the Mailbox ownership rule: under -race, a
// buffer rewritten while its receiver still injects from it is a
// reported data race.
func TestEveryTickRingMatchesSync(t *testing.T) {
	e := newEval(t, 40)
	for _, k := range []int{3, 4, 5} {
		cfg := ringCfg(k, 1, 3, 8, 1)
		is, err := NewIslands(e, cfg, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{}
		is.SetObserver(rec)
		for _, n := range []int{1, 7, 4} {
			is.Run(n)
		}
		ref := newBarrierRing(t, e, cfg, 11)
		ref.run(t, 12)
		for i, eng := range ref.engines {
			if !frontsEqual(is.shard.engines[i].FrontPoints(), eng.FrontPoints()) {
				t.Fatalf("k=%d: island %d front differs from the barrier reference", k, i)
			}
		}
		requireEventsIdentical(t, rec, ref.rec, "every-tick ring vs barrier")
	}
}

// TestIslandsStepMatchesRun: stepping one generation at a time, one
// long Run, and a Run split mid-interval all end in the same state and
// emit the same events.
func TestIslandsStepMatchesRun(t *testing.T) {
	e := newEval(t, 40)
	cfg := ringCfg(3, 4, 2, 8, 2)
	drive := func(step func(is *Islands)) (*Islands, *recorder) {
		is, err := NewIslands(e, cfg, rng.New(17))
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{}
		is.SetObserver(rec)
		step(is)
		return is, rec
	}
	whole, wholeRec := drive(func(is *Islands) { is.Run(13) })
	stepped, stepRec := drive(func(is *Islands) {
		for i := 0; i < 13; i++ {
			is.Step()
		}
	})
	chunked, chunkRec := drive(func(is *Islands) {
		is.Run(5)
		is.Run(8)
	})

	requireIslandsIdentical(t, whole, stepped, "Step x13 vs Run(13)")
	requireEventsIdentical(t, wholeRec, stepRec, "Step x13 vs Run(13)")
	requireIslandsIdentical(t, whole, chunked, "Run(5)+Run(8) vs Run(13)")
	requireEventsIdentical(t, wholeRec, chunkRec, "Run(5)+Run(8) vs Run(13)")
}

// TestIslandsStepAllocs: a warm Islands.Step reuses the shard's ring
// state, so it allocates at most 12 times per step on 4 islands × 50,
// one engine worker each (TestIslandsMigrationAllocs pins it at 0).
// Twenty-five steps span exactly one migration tick at the default
// interval.
func TestIslandsStepAllocs(t *testing.T) {
	is := newIslands(t, 250, IslandConfig{
		Islands: 4,
		Engine:  Config{PopulationSize: 50, Workers: 1},
	}, 1)
	is.Run(30) // size arenas and scratch, build the ring, cross a tick
	if n := testing.AllocsPerRun(25, is.Step); n > 12 {
		t.Fatalf("warm Islands.Step allocates %v times, want at most 12", n)
	}
}

// TestIslandsMigrationAllocs: a warm Islands.Step allocates nothing,
// migration ticks included: migrants travel as packed genomes in the
// senders' reused buffers, Inject copies them into arena genomes, and
// every island runs from a goroutine body built with the ring. At
// interval 1 every step is a tick; at interval 5 the 25 measured steps
// hold five.
func TestIslandsMigrationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race; Inject validates through Validate's pool")
	}
	for _, interval := range []int{1, 5} {
		is := newIslands(t, 250, IslandConfig{
			Islands:           4,
			MigrationInterval: interval,
			Engine:            Config{PopulationSize: 50, Workers: 1},
		}, 1)
		is.Run(30) // size arenas and scratch, build the ring, cross ticks
		if n := testing.AllocsPerRun(25, is.Step); n != 0 {
			t.Fatalf("interval %d: warm Islands.Step allocates %v times, want 0", interval, n)
		}
	}
}

// TestAsyncIslandsWorkerInvariance: ring results do not depend on the
// engines' internal evaluation parallelism.
func TestAsyncIslandsWorkerInvariance(t *testing.T) {
	e := newEval(t, 40)
	var base *Islands
	for i, workers := range []int{1, 2, 5} {
		is, err := NewIslands(e, ringCfg(3, 5, 2, 8, workers), rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		is.Run(17)
		if i == 0 {
			base = is
			continue
		}
		requireIslandsIdentical(t, base, is, "worker invariance")
	}
}

// TestAsyncIslandsSnapshotResume: pausing a run at an arbitrary
// logical-clock point and resuming from the (JSON round-tripped)
// snapshot is bit-identical to never pausing, for multiple island
// counts and pause points — mid-interval, exactly on a migration tick,
// and after a single generation.
func TestAsyncIslandsSnapshotResume(t *testing.T) {
	e := newEval(t, 40)
	const total = 20
	for _, k := range []int{2, 3} {
		for _, pause := range []int{1, 7, 10} {
			cfg := ringCfg(k, 5, 2, 8, 2)

			straight, err := NewIslands(e, cfg, rng.New(31))
			if err != nil {
				t.Fatal(err)
			}
			straight.Run(total)

			paused, err := NewIslands(e, cfg, rng.New(31))
			if err != nil {
				t.Fatal(err)
			}
			paused.Run(pause)
			raw, err := EncodeIslandsSnapshot(paused.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			snap, err := DecodeIslandsSnapshot(raw)
			if err != nil {
				t.Fatal(err)
			}
			// A fresh run with a different source: every bit of resumed
			// state must come from the snapshot, not the constructor.
			resumed, err := NewIslands(e, cfg, rng.New(99))
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Restore(snap); err != nil {
				t.Fatal(err)
			}
			if resumed.Generation() != pause {
				t.Fatalf("restored generation %d, want %d", resumed.Generation(), pause)
			}
			resumed.Run(total - pause)
			requireIslandsIdentical(t, straight, resumed, "snapshot resume")
		}
	}
}

// TestIslandsSnapshotValidation: mismatched shapes and negative
// generations are rejected.
func TestIslandsSnapshotValidation(t *testing.T) {
	e := newEval(t, 20)
	cfg := ringCfg(3, 5, 1, 6, 1)
	is, err := NewIslands(e, cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	is.Run(2)
	snap := is.Snapshot()
	if len(snap.Islands) != 3 {
		t.Fatalf("snapshot has %d islands, want 3", len(snap.Islands))
	}

	two, err := NewIslands(e, ringCfg(2, 5, 1, 6, 1), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := two.Restore(snap); err == nil {
		t.Fatal("restore accepted a snapshot with the wrong island count")
	}
	if err := is.Restore(&IslandsSnapshot{Generation: 1, Islands: []*Snapshot{nil, nil, nil}}); err == nil {
		t.Fatal("restore accepted nil island snapshots")
	}
	// A negative generation would start the tick schedule below zero,
	// where the islands and the tick count disagree on the ticks.
	neg := is.Snapshot()
	neg.Generation = -3
	if err := is.Restore(neg); err == nil {
		t.Fatal("restore accepted a negative generation")
	}
	if _, err := DecodeIslandsSnapshot([]byte(`{"generation":3,"islands":[]}`)); err == nil {
		t.Fatal("decode accepted an empty islands snapshot")
	}
	if _, err := DecodeIslandsSnapshot([]byte(`{`)); err == nil {
		t.Fatal("decode accepted malformed JSON")
	}
}

// TestIslandsShardStatsEvents: each migration tick emits one aggregated
// GenerationStats labeled "islands" summing the per-island evaluation
// and arena shards, after that tick's migration events.
func TestIslandsShardStatsEvents(t *testing.T) {
	e := newEval(t, 30)
	cfg := IslandConfig{
		Islands:           3,
		MigrationInterval: 4,
		Migrants:          2,
		Engine:            Config{PopulationSize: 6},
	}
	is, err := NewIslands(e, cfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	is.SetObserver(rec)
	is.Run(9) // ticks at 4 and 8

	if len(rec.gens) != 2 {
		t.Fatalf("%d shard-stats events, want 2", len(rec.gens))
	}
	for i, g := range rec.gens {
		if g.Label != "islands" {
			t.Fatalf("event %d label %q, want islands", i, g.Label)
		}
		if want := (i + 1) * 4; g.Generation != want {
			t.Fatalf("event %d at generation %d, want %d", i, g.Generation, want)
		}
		if g.Population != 6*3 {
			t.Fatalf("event %d population %d, want 18", i, g.Population)
		}
		// Per-tick work: every generation in the interval evaluates the
		// offspring of all three islands, so the counters must cover at
		// least interval × islands × population accounted offspring.
		if got := g.FullEvals + g.DeltaEvals; got < 4*3*6 {
			t.Fatalf("event %d accounts %d evaluations, want >= 72", i, got)
		}
		if g.CacheHits != 0 || g.CacheMisses != 0 || g.MachineCacheHits != 0 || g.MachineCacheMisses != 0 {
			t.Fatalf("event %d reports retired cache counters %d/%d/%d/%d, want 0",
				i, g.CacheHits, g.CacheMisses, g.MachineCacheHits, g.MachineCacheMisses)
		}
		if g.ArenaSlots <= 0 || g.ArenaInUse <= 0 || g.ArenaInUse > g.ArenaSlots {
			t.Fatalf("event %d arena %d/%d", i, g.ArenaInUse, g.ArenaSlots)
		}
		if g.NumMachines != e.NumMachines() {
			t.Fatalf("event %d machines %d", i, g.NumMachines)
		}
	}
}

// FuzzIslandsSnapshotRestore feeds arbitrary bytes through the island
// snapshot decoder and restore on a two-island ring, then runs it:
// malformed snapshots must end in an error, never a panic.
func FuzzIslandsSnapshotRestore(f *testing.F) {
	e := newEval(f, 12)
	cfg := ringCfg(2, 2, 1, 4, 1)
	is, err := NewIslands(e, cfg, rng.New(1))
	if err != nil {
		f.Fatal(err)
	}
	is.Run(3)
	add := func(s *IslandsSnapshot) {
		raw, err := EncodeIslandsSnapshot(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	add(is.Snapshot())
	neg := is.Snapshot()
	neg.Generation = -3
	add(neg)
	wide := is.Snapshot()
	wide.Islands[0].Population[0].Machine[0] = 1<<32 + 1
	add(wide)
	f.Fuzz(func(t *testing.T, raw []byte) {
		snap, err := DecodeIslandsSnapshot(raw)
		if err != nil {
			return
		}
		ring, err := NewIslands(e, cfg, rng.New(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := ring.Restore(snap); err != nil {
			return
		}
		ring.Run(3)
	})
}
