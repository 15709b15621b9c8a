package nsga2

import (
	"reflect"
	"testing"

	"tradeoff/internal/rng"
)

// asyncCfg builds an island config with the async flag set.
func asyncCfg(islands, interval, migrants, pop, workers int) IslandConfig {
	return IslandConfig{
		Islands:           islands,
		MigrationInterval: interval,
		Migrants:          migrants,
		Async:             true,
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
	for i := range a.engines {
		if !frontsEqual(a.engines[i].FrontPoints(), b.engines[i].FrontPoints()) {
			t.Fatalf("%s: island %d fronts differ", label, i)
		}
	}
}

// TestAsyncIslandsMatchSync: the asynchronous logical-clock schedule
// must be bit-identical to barrier-synchronized stepping — populations,
// fronts, and the full telemetry sequence — for several ring sizes and
// engine worker counts. This is the island-scheduling analogue of
// TestWorkerCountInvariance: goroutine interleaving must never leak
// into results.
func TestAsyncIslandsMatchSync(t *testing.T) {
	e := newEval(t, 40)
	for _, k := range []int{1, 2, 3, 4} {
		for _, workers := range []int{1, 3} {
			cfg := asyncCfg(k, 4, 2, 8, workers)
			sync := cfg
			sync.Async = false

			a, err := NewIslands(e, cfg, rng.New(77))
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewIslands(e, sync, rng.New(77))
			if err != nil {
				t.Fatal(err)
			}
			recA, recS := &recorder{}, &recorder{}
			a.SetObserver(recA)
			s.SetObserver(recS)
			a.Run(13) // 3 ticks (4, 8, 12) plus an off-tick tail
			s.Run(13)

			requireIslandsIdentical(t, a, s, "async vs sync")
			if !reflect.DeepEqual(recA.migrations, recS.migrations) {
				t.Fatalf("k=%d w=%d: migration sequences differ:\nasync %v\nsync  %v",
					k, workers, recA.migrations, recS.migrations)
			}
			if !reflect.DeepEqual(recA.gens, recS.gens) {
				t.Fatalf("k=%d w=%d: shard-stats sequences differ:\nasync %+v\nsync  %+v",
					k, workers, recA.gens, recS.gens)
			}
		}
	}
}

// TestAsyncIslandsWorkerInvariance: async results do not depend on the
// engines' internal evaluation parallelism.
func TestAsyncIslandsWorkerInvariance(t *testing.T) {
	e := newEval(t, 40)
	var base *Islands
	for i, workers := range []int{1, 2, 5} {
		is, err := NewIslands(e, asyncCfg(3, 5, 2, 8, workers), rng.New(5))
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

// TestAsyncIslandsSnapshotResume: pausing an asynchronous run at an
// arbitrary logical-clock point and resuming from the (JSON
// round-tripped) snapshot is bit-identical to never pausing, for
// multiple island counts and pause points — mid-interval, exactly on a
// migration tick, and after a single generation.
func TestAsyncIslandsSnapshotResume(t *testing.T) {
	e := newEval(t, 40)
	const total = 20
	for _, k := range []int{2, 3} {
		for _, pause := range []int{1, 7, 10} {
			cfg := asyncCfg(k, 5, 2, 8, 2)

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

// TestIslandsSnapshotValidation: mismatched shapes are rejected.
func TestIslandsSnapshotValidation(t *testing.T) {
	e := newEval(t, 20)
	cfg := asyncCfg(3, 5, 1, 6, 1)
	is, err := NewIslands(e, cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	is.Run(2)
	snap := is.Snapshot()
	if len(snap.Islands) != 3 {
		t.Fatalf("snapshot has %d islands, want 3", len(snap.Islands))
	}

	two, err := NewIslands(e, asyncCfg(2, 5, 1, 6, 1), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := two.Restore(snap); err == nil {
		t.Fatal("restore accepted a snapshot with the wrong island count")
	}
	if err := is.Restore(&IslandsSnapshot{Generation: 1, Islands: []*Snapshot{nil, nil, nil}}); err == nil {
		t.Fatal("restore accepted nil island snapshots")
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
