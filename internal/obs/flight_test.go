package obs

import (
	"strings"
	"testing"
)

func TestFlightRecorderCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFlightRecorder(0, nil) did not panic")
		}
	}()
	NewFlightRecorder(0, nil)
}

func TestFlightRecorderWrapAround(t *testing.T) {
	const capacity = 4
	fr := NewFlightRecorder(capacity, countingClock(1, 1))
	// Fill to exactly capacity: nothing evicted yet.
	for gen := 1; gen <= capacity; gen++ {
		fr.ObserveGeneration(sampleGeneration(gen))
	}
	if fr.Len() != capacity || fr.TotalObserved() != capacity {
		t.Fatalf("at capacity: Len %d, TotalObserved %d", fr.Len(), fr.TotalObserved())
	}
	var atCap strings.Builder
	if err := fr.Dump(&atCap); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(atCap.String(), "\n"); n != capacity {
		t.Fatalf("dump at capacity has %d lines, want %d", n, capacity)
	}
	if !strings.Contains(atCap.String(), `"gen":1`) {
		t.Fatal("dump at exact capacity must still hold the first event")
	}

	// One more event wraps: the oldest is recycled, window slides.
	fr.ObserveGeneration(sampleGeneration(capacity + 1))
	if fr.Len() != capacity || fr.TotalObserved() != capacity+1 {
		t.Fatalf("after wrap: Len %d, TotalObserved %d", fr.Len(), fr.TotalObserved())
	}
	var wrapped strings.Builder
	if err := fr.Dump(&wrapped); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(wrapped.String(), "\n"), "\n")
	if len(lines) != capacity {
		t.Fatalf("dump after wrap has %d lines, want %d", len(lines), capacity)
	}
	if strings.Contains(wrapped.String(), `"gen":1,`) {
		t.Fatal("oldest event must be evicted on wrap")
	}
	// Oldest-first replay with the original capture timestamps.
	if !strings.Contains(lines[0], `"ts":2`) || !strings.Contains(lines[0], `"gen":2`) {
		t.Fatalf("first dumped line %q, want gen 2 at ts 2", lines[0])
	}
	if !strings.Contains(lines[capacity-1], `"gen":5`) {
		t.Fatalf("last dumped line %q, want gen 5", lines[capacity-1])
	}
}

func TestFlightRecorderDeepCopiesBorrowedBuffers(t *testing.T) {
	fr := NewFlightRecorder(2, nil)
	g := sampleGeneration(1)
	front := [][]float64{{10, 2}, {8, 1}}
	g.Front = front
	fr.ObserveGeneration(g)
	// The engine recycles its buffers after the call; the slot must not
	// see the mutation.
	front[0][0] = -99
	var sb strings.Builder
	if err := fr.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "-99") {
		t.Fatalf("dump aliases the producer's recycled buffers:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "[10,2]") {
		t.Fatalf("dump lost the copied front:\n%s", sb.String())
	}
}

func TestFlightRecorderDumpValidatesAndReplays(t *testing.T) {
	fr := NewFlightRecorder(8, countingClock(100, 1))
	for gen := 1; gen <= 3; gen++ {
		fr.ObserveGeneration(sampleGeneration(gen))
	}
	fr.ObserveMigration(MigrationEvent{Generation: 3, From: 0, To: 1, Count: 2})
	fr.ObserveRun(RunEvent{Dataset: "ds1", Variant: "base", Run: 0, Seed: 42,
		Hypervolume: 38.5, MaxUtility: 10.5, FrontSize: 2})

	var a strings.Builder
	if err := fr.Dump(&a); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateTrace(strings.NewReader(a.String()))
	if err != nil {
		t.Fatalf("dump does not validate: %v\n%s", err, a.String())
	}
	if sum.Generations != 3 || sum.Migrations != 1 || sum.Runs != 1 {
		t.Fatalf("dump summary %+v", sum)
	}

	// Dump is non-consuming: a second dump replays the same bytes.
	var b strings.Builder
	if err := fr.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("repeated dumps differ")
	}
}

func TestFlightRecorderMatchesLiveTraceWriter(t *testing.T) {
	// A dump must be byte-identical to what a TraceWriter attached
	// alongside the recorder would have written for the same window.
	// A constant clock keeps the two observers' stamps aligned (a
	// ticking clock would advance between the fan-out calls).
	clock := func() int64 { return 42 }
	var live strings.Builder
	tw := NewTraceWriter(&live, clock)
	fr := NewFlightRecorder(8, clock)
	m := Multi{tw, fr}
	for gen := 1; gen <= 2; gen++ {
		m.ObserveGeneration(sampleGeneration(gen))
	}
	m.ObserveMigration(MigrationEvent{Generation: 2, From: 1, To: 0, Count: 1})
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	var dump strings.Builder
	if err := fr.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	if live.String() != dump.String() {
		t.Fatalf("dump differs from live trace:\nlive:\n%s\ndump:\n%s", live.String(), dump.String())
	}
}
