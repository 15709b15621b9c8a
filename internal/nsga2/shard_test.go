package nsga2

import (
	"sync"
	"testing"

	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// shardRing builds one IslandShard per [cuts[w], cuts[w+1]) range from
// an independent rng.New(seed) source each — validating that every
// shard re-derives its islands' streams by consuming all ring splits —
// and runs them concurrently with channel boundary mailboxes, exactly
// the topology internal/dist carries over sockets.
func shardRing(t *testing.T, e *sched.Evaluator, cfg IslandConfig, seed uint64, cuts []int) []*IslandShard {
	t.Helper()
	w := len(cuts) - 1
	shards := make([]*IslandShard, w)
	for i := 0; i < w; i++ {
		s, err := NewIslandShard(e, cfg, rng.New(seed), cuts[i], cuts[i+1])
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = s
	}
	return shards
}

// runShards drives every shard for the given generations over shared
// boundary edges and returns the per-shard tick records.
func runShards(t *testing.T, shards []*IslandShard, generations int) [][][]ShardTick {
	t.Helper()
	w := len(shards)
	recs := make([][][]ShardTick, w)
	if w == 1 {
		r, err := shards[0].Run(generations, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		recs[0] = r
		return recs
	}
	abort := newRingAbort()
	// bnd[i] is the edge from shard i into shard (i+1)%w.
	bnd := make([]Mailbox, w)
	for i := range bnd {
		bnd[i] = newChanMailbox(abort)
	}
	errs := make([]error, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int, sh *IslandShard) {
			defer wg.Done()
			recs[i], errs[i] = sh.Run(generations, bnd[(i+w-1)%w], bnd[i])
		}(i, shards[i])
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	return recs
}

// TestIslandShardPartitionsMatchIslands: every contiguous shard
// partition of the ring — including the trivial whole-ring shard — must
// end bit-identical to the single-process island run: per-island
// fronts, merged front, and per-tick migrant counts.
func TestIslandShardPartitionsMatchIslands(t *testing.T) {
	e := newEval(t, 40)
	for _, tc := range []struct {
		k    int
		cuts []int
	}{
		{3, []int{0, 3}},
		{4, []int{0, 2, 4}},
		{4, []int{0, 1, 2, 3, 4}},
		{5, []int{0, 2, 3, 5}},
	} {
		cfg := ringCfg(tc.k, 4, 2, 8, 2)
		ref, err := NewIslands(e, cfg, rng.New(77))
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{}
		ref.SetObserver(rec)
		ref.Run(13) // ticks at 4, 8, 12 plus an off-tick tail

		shards := shardRing(t, e, cfg, 77, tc.cuts)
		recs := runShards(t, shards, 13)

		for w, s := range shards {
			if s.Generation() != ref.Generation() {
				t.Fatalf("k=%d cuts=%v: shard %d at generation %d, want %d",
					tc.k, tc.cuts, w, s.Generation(), ref.Generation())
			}
			for li, front := range s.Fronts() {
				gi := s.Lo() + li
				var pts [][]float64
				for _, ind := range front {
					pts = append(pts, ind.Objectives)
				}
				if !frontsEqual(pts, ref.shard.engines[gi].FrontPoints()) {
					t.Fatalf("k=%d cuts=%v: island %d front differs from in-process run", tc.k, tc.cuts, gi)
				}
				// Per-tick migrant counts must match the reference
				// telemetry for the same global island.
				for ti, tick := range recs[w][li] {
					want := rec.migrations[ti*tc.k+gi]
					if tick.Migrants != want.Count || want.From != gi {
						t.Fatalf("k=%d cuts=%v: island %d tick %d migrants %d, want %d",
							tc.k, tc.cuts, gi, ti, tick.Migrants, want.Count)
					}
				}
			}
		}

		// The merged front across shards must equal the island model's.
		var union []Individual
		for _, s := range shards {
			for _, front := range s.Fronts() {
				union = append(union, front...)
			}
		}
		merged := MergeFronts(shards[0].space, union)
		var pts [][]float64
		for _, ind := range merged {
			pts = append(pts, ind.Objectives)
		}
		if !frontsEqual(pts, ref.FrontPoints()) {
			t.Fatalf("k=%d cuts=%v: merged shard front differs", tc.k, tc.cuts)
		}
	}
}

// TestIslandShardSnapshotHandoff: a run started as sharded processes
// can be resumed as a single-process island run and vice versa, bit
// for bit.
func TestIslandShardSnapshotHandoff(t *testing.T) {
	e := newEval(t, 40)
	cfg := ringCfg(4, 5, 2, 8, 1)
	const total, pause = 18, 7

	straight, err := NewIslands(e, cfg, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	straight.Run(total)

	// Sharded start, in-process finish.
	shards := shardRing(t, e, cfg, 31, []int{0, 2, 4})
	runShards(t, shards, pause)
	snap := &IslandsSnapshot{Generation: shards[0].Generation()}
	for _, s := range shards {
		snap.Islands = append(snap.Islands, s.Snapshots()...)
	}
	resumed, err := NewIslands(e, cfg, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	resumed.Run(total - pause)
	requireIslandsIdentical(t, straight, resumed, "sharded start, in-process finish")

	// In-process start, sharded finish.
	head, err := NewIslands(e, cfg, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	head.Run(pause)
	snap2 := head.Snapshot()
	tail := shardRing(t, e, cfg, 99, []int{0, 2, 4})
	for _, s := range tail {
		if err := s.Restore(snap2.Generation, snap2.Islands[s.Lo():s.Hi()]); err != nil {
			t.Fatal(err)
		}
		if s.Generation() != pause {
			t.Fatalf("restored shard at generation %d, want %d", s.Generation(), pause)
		}
	}
	runShards(t, tail, total-pause)
	gi := 0
	for _, s := range tail {
		for _, front := range s.Fronts() {
			var pts [][]float64
			for _, ind := range front {
				pts = append(pts, ind.Objectives)
			}
			if !frontsEqual(pts, straight.shard.engines[gi].FrontPoints()) {
				t.Fatalf("island %d front differs after in-process start, sharded finish", gi)
			}
			gi++
		}
	}
}

// TestIslandShardValidation: bad ranges, missing boundary mailboxes,
// and shape-mismatched restores are rejected.
func TestIslandShardValidation(t *testing.T) {
	e := newEval(t, 20)
	cfg := ringCfg(3, 5, 1, 6, 1)
	if _, err := NewIslandShard(e, cfg, rng.New(1), 2, 2); err == nil {
		t.Fatal("accepted an empty shard range")
	}
	if _, err := NewIslandShard(e, cfg, rng.New(1), 1, 4); err == nil {
		t.Fatal("accepted a shard range past the ring")
	}
	if _, err := NewIslandShard(e, cfg, nil, 0, 1); err == nil {
		t.Fatal("accepted a nil source")
	}
	s, err := NewIslandShard(e, cfg, rng.New(1), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(5, nil, nil); err == nil {
		t.Fatal("partial shard ran without boundary mailboxes")
	}
	if err := s.Restore(3, nil); err == nil {
		t.Fatal("restore accepted a snapshot count mismatch")
	}
	if err := s.Restore(3, []*Snapshot{nil, nil}); err == nil {
		t.Fatal("restore accepted nil island snapshots")
	}
}
