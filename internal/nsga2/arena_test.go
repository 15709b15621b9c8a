package nsga2

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestArenaChunkSlots pins each field's growth quantum: genomes grow
// one sequence per draw at every task count, while objective vectors
// and contribution rows are carved a whole batch (the demand hint) at a
// time.
func TestArenaChunkSlots(t *testing.T) {
	for _, tasks := range []int{1, 50, 250, 1000} {
		eval := newEval(t, tasks)
		ar := &arena{}
		ar.init(eval, 2, 200)
		for draw := 1; draw <= 3; draw++ {
			q := ar.getSeq()
			if len(q) != tasks || cap(q) != tasks {
				t.Fatalf("%d tasks: sequence len/cap %d/%d, want %d/%d", tasks, len(q), cap(q), tasks, tasks)
			}
			if ar.seqSlots != draw {
				t.Fatalf("%d tasks: %d draws own %d sequences, want %d", tasks, draw, ar.seqSlots, draw)
			}
		}
		ar.getObjs()
		ar.getContrib()
		if ar.objSlots != 200 || ar.objChunks != 1 || ar.contribSlots != 200 || ar.contribChunks != 1 {
			t.Fatalf("%d tasks: first draws carved %d objective / %d contrib slots in %d/%d batches, want 200/200 in 1/1",
				tasks, ar.objSlots, ar.contribSlots, ar.objChunks, ar.contribChunks)
		}
	}
}

// TestArenaSlotBytes pins the genotype's cost, one 4-byte execution
// slot per task, and its alignment: each sequence is its own allocation
// of whole 64-byte lines, so it starts on a cache line.
func TestArenaSlotBytes(t *testing.T) {
	if seqSlotBytes != 4 || unsafe.Sizeof(uint32(0)) != seqSlotBytes {
		t.Fatalf("arena slot costs %d bytes per task, want 4", seqSlotBytes)
	}
	for _, tasks := range []int{50, 1000} {
		eval := newEval(t, tasks)
		ar := &arena{}
		ar.init(eval, 2, 10)
		a, b := ar.getSeq(), ar.getSeq()
		if len(a) != tasks || cap(a) != tasks {
			t.Fatalf("%d tasks: sequence len/cap %d/%d, want %d/%d", tasks, len(a), cap(a), tasks, tasks)
		}
		for _, q := range [][]uint32{a, b} {
			if addr := uintptr(unsafe.Pointer(&q[0])); addr%64 != 0 {
				t.Fatalf("%d tasks: sequence at %#x is not 64-byte aligned", tasks, addr)
			}
		}
	}
}

// TestArenaChunkedGrowth: drawing past the free list allocates one new
// sequence per draw without touching existing ones, recycled sequences
// are reused before any new one is allocated, a dropped sequence leaves
// the arena's count, and occupancy tracks draws exactly.
func TestArenaChunkedGrowth(t *testing.T) {
	eval := newEval(t, 50)
	ar := &arena{}
	ar.init(eval, 2, 10)

	var drawn []*seqHolder
	for i := 0; i < 25; i++ {
		q := ar.getSeq()
		// Stamp every slot so cross-sequence aliasing would be caught
		// below.
		for k := range q {
			q[k] = uint32(i)
		}
		drawn = append(drawn, &seqHolder{q, i})
	}
	if ar.seqSlots != 25 {
		t.Fatalf("seqSlots = %d after 25 draws, want 25", ar.seqSlots)
	}
	for _, h := range drawn {
		for k := range h.q {
			if h.q[k] != uint32(h.stamp) {
				t.Fatalf("sequence stamped %d reads %d at slot %d: sequences alias",
					h.stamp, h.q[k], k)
			}
		}
	}
	inUse, total := ar.occupancy()
	if inUse != 25 || total != 25 {
		t.Fatalf("occupancy %d/%d, want 25/25", inUse, total)
	}
	// Recycle all but one, drop that one, and draw the recycled count
	// again: steady state must not grow.
	for _, h := range drawn[1:] {
		ar.putSeq(h.q)
	}
	ar.dropSeq()
	if inUse, total := ar.occupancy(); inUse != 0 || total != 24 {
		t.Fatalf("occupancy after recycling 24 and dropping 1 = %d/%d, want 0/24", inUse, total)
	}
	for i := 0; i < 24; i++ {
		ar.getSeq()
	}
	if ar.seqSlots != 24 {
		t.Fatalf("steady-state redraw grew the arena to %d sequences, want 24", ar.seqSlots)
	}
	// One more draw crosses the free list: exactly one new sequence.
	ar.getSeq()
	if ar.seqSlots != 25 {
		t.Fatalf("overflow draw left %d sequences, want 25", ar.seqSlots)
	}
}

type seqHolder struct {
	q     []uint32
	stamp int
}

// TestArenaEngineChunks: a live engine's first generation allocates its
// steady-state demand and stays flat afterwards, also when ParetoFront
// shares genomes that later fall: each dropped genome is replaced by
// one new allocation, so the arena owns the same number as before.
func TestArenaEngineChunks(t *testing.T) {
	eng := newEngine(t, 50, Config{PopulationSize: 12}, 3)
	eng.Run(3)
	slots := eng.arena.seqSlots
	if slots != 2*12 {
		t.Fatalf("engine owns %d sequences after 3 generations, want 2N = 24", slots)
	}
	eng.Run(10)
	if eng.arena.seqSlots != slots {
		t.Fatalf("steady-state run grew arena %d→%d sequences", slots, eng.arena.seqSlots)
	}
	for i := 0; i < 5; i++ {
		if len(eng.ParetoFront()) == 0 {
			t.Fatal("empty front")
		}
		eng.Run(10)
		if eng.arena.seqSlots != slots {
			t.Fatalf("after sharing a front, arena owns %d sequences, want %d", eng.arena.seqSlots, slots)
		}
	}
}

// requireArenaInUse asserts that an engine's arena counts exactly its
// population in use: one genome, one objective vector and one
// contribution row per member.
func requireArenaInUse(t *testing.T, eng *Engine, label string) {
	t.Helper()
	inUse, total := eng.arena.occupancy()
	if want := 3 * len(eng.pop); inUse != want || inUse > total {
		t.Fatalf("%s: arena in use %d of %d slots, want %d", label, inUse, total, want)
	}
}

// TestArenaInUseExact: every objective vector the engine holds comes
// from the arena, so the in-use count stays at three slots per member
// through New, Step, Inject (of materialized and of packed migrants),
// shared fronts and Restore, and on every island of a migrating ring.
func TestArenaInUseExact(t *testing.T) {
	eng := newEngine(t, 50, Config{PopulationSize: 12}, 3)
	requireArenaInUse(t, eng, "New")
	eng.Run(3)
	requireArenaInUse(t, eng, "Step")
	donor := newEngine(t, 50, Config{PopulationSize: 12}, 4)
	for tick := 0; tick < 5; tick++ {
		if err := eng.Inject(donor.Elites(2)); err != nil {
			t.Fatal(err)
		}
		requireArenaInUse(t, eng, "Inject of clones")
		packed := donor.newMigrants(3)
		donor.packElites(packed)
		if err := eng.Inject(packed); err != nil {
			t.Fatal(err)
		}
		requireArenaInUse(t, eng, "Inject of packed elites")
		if len(eng.ParetoFront()) == 0 {
			t.Fatal("empty front")
		}
		eng.Run(2)
		requireArenaInUse(t, eng, "Step after a shared front")
	}
	snap := donor.Snapshot()
	if err := eng.Restore(snap); err != nil {
		t.Fatal(err)
	}
	requireArenaInUse(t, eng, "Restore")

	is := newIslands(t, 50, IslandConfig{
		Islands:           4,
		MigrationInterval: 1,
		Migrants:          3,
		Engine:            Config{PopulationSize: 10, Workers: 1},
	}, 5)
	for run := 0; run < 4; run++ {
		is.Run(7)
		for i, e := range is.shard.engines {
			requireArenaInUse(t, e, fmt.Sprintf("run %d, island %d", run, i))
		}
	}
	if err := is.Restore(is.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, b := range is.shard.Baselines() {
		if b.ArenaInUse != 3*10 {
			t.Fatalf("restored ring island reports %d arena slots in use, want 30", b.ArenaInUse)
		}
	}
}
