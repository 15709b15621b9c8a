package nsga2

import (
	"testing"
	"unsafe"
)

// TestArenaChunkSlots pins the genotype growth quantum: byte-bounded by
// arenaChunkBytes at 4 bytes per execution slot, never below 4
// sequences, never above the demand hint.
func TestArenaChunkSlots(t *testing.T) {
	ar := &arena{batch: 200}
	cases := []struct {
		stride, want int
	}{
		{64, 200},                  // tiny genomes: demand hint caps the chunk
		{4096, 200},                // 4k tasks: byte budget (512) still above hint
		{204800, 10},               // 200k tasks: 800 KB/sequence ⇒ 10-sequence chunks
		{1 << 20, 4},               // 1M tasks: 2 fit the budget, floor of 4
		{arenaChunkBytes * 2, 4},   // absurd stride still yields the floor
		{arenaChunkBytes / 80, 20}, // exactly 20 sequences of budget
	}
	for _, tc := range cases {
		got := ar.seqChunkSlots(tc.stride)
		if got != tc.want {
			t.Fatalf("stride %d: chunk %d sequences, want %d", tc.stride, got, tc.want)
		}
		if bytes := got * tc.stride * seqSlotBytes; got > 4 && bytes > arenaChunkBytes {
			t.Fatalf("stride %d: chunk %d sequences = %d bytes exceeds budget", tc.stride, got, bytes)
		}
	}
}

// TestArenaSlotBytes pins the genotype's cost: one 4-byte execution
// slot per task, with a sequence stride of whole 64-byte lines.
func TestArenaSlotBytes(t *testing.T) {
	if seqSlotBytes != 4 || unsafe.Sizeof(uint32(0)) != seqSlotBytes {
		t.Fatalf("arena slot costs %d bytes per task, want 4", seqSlotBytes)
	}
	eval := newEval(t, 50)
	ar := &arena{}
	ar.init(eval, 2, 10)
	a, b := ar.getSeq(), ar.getSeq()
	if len(a) != 50 || cap(a) != 50 {
		t.Fatalf("sequence len/cap %d/%d, want 50/50", len(a), cap(a))
	}
	// Adjacent sequences of one chunk sit one 64-byte-aligned stride
	// apart: 50 tasks round up to 64 slots = 256 bytes.
	gap := uintptr(unsafe.Pointer(&a[0])) - uintptr(unsafe.Pointer(&b[0]))
	if gap != 64*seqSlotBytes {
		t.Fatalf("sequence stride %d bytes, want %d", gap, 64*seqSlotBytes)
	}
}

// TestArenaChunkedGrowth: drawing past one chunk carves additional
// chunks without touching existing sequences, recycled sequences are
// reused before any new chunk is carved, and occupancy tracks draws
// exactly.
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
	if ar.seqChunks != 3 {
		t.Fatalf("seqChunks = %d after 25 draws of 10-sequence chunks, want 3", ar.seqChunks)
	}
	if ar.seqSlots != 30 {
		t.Fatalf("seqSlots = %d, want 30", ar.seqSlots)
	}
	for _, h := range drawn {
		for k := range h.q {
			if h.q[k] != uint32(h.stamp) {
				t.Fatalf("sequence stamped %d reads %d at slot %d: chunks alias or moved",
					h.stamp, h.q[k], k)
			}
		}
	}
	inUse, total := ar.occupancy()
	if inUse != 25 || total != 30 {
		t.Fatalf("occupancy %d/%d, want 25/30", inUse, total)
	}
	// Recycle everything, draw the full carved count again: steady state
	// must not grow.
	for _, h := range drawn {
		ar.putSeq(h.q)
	}
	for i := 0; i < 30; i++ {
		ar.getSeq()
	}
	if ar.seqChunks != 3 || ar.seqSlots != 30 {
		t.Fatalf("steady-state redraw grew the arena to %d chunks / %d sequences",
			ar.seqChunks, ar.seqSlots)
	}
	// One more draw crosses the carved capacity: exactly one new chunk.
	ar.getSeq()
	if ar.seqChunks != 4 || ar.seqSlots != 40 {
		t.Fatalf("overflow draw carved %d chunks / %d sequences, want 4/40",
			ar.seqChunks, ar.seqSlots)
	}
}

type seqHolder struct {
	q     []uint32
	stamp int
}

// TestArenaEngineChunks: a live engine's first generation carves its
// steady-state demand in whole chunks and stays flat afterwards.
func TestArenaEngineChunks(t *testing.T) {
	eng := newEngine(t, 50, Config{PopulationSize: 12}, 3)
	eng.Run(3)
	chunks, slots := eng.arena.seqChunks, eng.arena.seqSlots
	if chunks == 0 || slots == 0 {
		t.Fatal("engine carved no arena chunks")
	}
	eng.Run(10)
	if eng.arena.seqChunks != chunks || eng.arena.seqSlots != slots {
		t.Fatalf("steady-state run grew arena %d→%d chunks, %d→%d sequences",
			chunks, eng.arena.seqChunks, slots, eng.arena.seqSlots)
	}
}
