package obs

import (
	"fmt"
	"io"
	"sync"
)

// FlightRecorder is an Observer retaining the last N telemetry events
// (generation, migration, and run) in a fixed-capacity ring buffer for
// post-hoc inspection: a long run keeps a bounded window of its recent
// history in memory, and the cmd layer dumps it on SIGUSR1 or at panic
// time. Recording deep-copies each event's borrowed buffers into
// slot-owned storage that is recycled on wrap-around, so the steady
// state allocates nothing once the slots have grown to the working
// set. All methods are mutex-guarded and safe for concurrent use.
type FlightRecorder struct {
	clock Clock
	mu    sync.Mutex
	slots []flightSlot
	next  int    // ring write position
	live  int    // retained events, <= len(slots)
	total uint64 // events ever observed
}

// flightKind discriminates what one ring slot holds.
type flightKind uint8

const (
	flightGeneration flightKind = iota
	flightMigration
	flightRun
)

// flightSlot is one retained event. For generation events, front and
// coord are the slot-owned deep-copy buffers gen's borrowed Front view
// is re-pointed into.
type flightSlot struct {
	kind  flightKind
	ts    int64
	gen   GenerationStats
	front [][]float64
	coord []float64
	mig   MigrationEvent
	run   RunEvent
}

// NewFlightRecorder returns a recorder retaining the last capacity
// events, stamping each with the injected clock (nil for a
// constant-zero clock). Panics if capacity < 1.
func NewFlightRecorder(capacity int, clock Clock) *FlightRecorder {
	if capacity < 1 {
		panic(fmt.Sprintf("obs: flight recorder capacity %d, want >= 1", capacity))
	}
	return &FlightRecorder{clock: clock, slots: make([]flightSlot, capacity)}
}

// push claims the next ring slot under f.mu, stamping it.
func (f *FlightRecorder) push() *flightSlot {
	s := &f.slots[f.next]
	f.next = (f.next + 1) % len(f.slots)
	if f.live < len(f.slots) {
		f.live++
	}
	f.total++
	if f.clock != nil {
		s.ts = f.clock()
	} else {
		s.ts = 0
	}
	return s
}

// ObserveGeneration implements Observer: deep-copies g into the next
// ring slot. The engine's borrowed Front buffer is copied into slot
// storage sized to the largest event the slot has seen, so wrap-around
// recycles rather than reallocates.
func (f *FlightRecorder) ObserveGeneration(g GenerationStats) {
	f.mu.Lock()
	s := f.push()
	s.kind = flightGeneration
	s.gen = g
	need := 0
	for _, p := range g.Front {
		need += len(p)
	}
	if cap(s.coord) < need {
		s.coord = make([]float64, 0, need)
	}
	if cap(s.front) < len(g.Front) {
		s.front = make([][]float64, 0, len(g.Front))
	}
	coord, front := s.coord[:0], s.front[:0]
	for _, p := range g.Front {
		lo := len(coord)
		coord = append(coord, p...)
		front = append(front, coord[lo:len(coord):len(coord)])
	}
	s.coord, s.front = coord, front
	s.gen.Front = front
	f.mu.Unlock()
}

// ObserveMigration implements Observer.
func (f *FlightRecorder) ObserveMigration(m MigrationEvent) {
	f.mu.Lock()
	s := f.push()
	s.kind = flightMigration
	s.mig = m
	f.mu.Unlock()
}

// ObserveRun implements Observer.
func (f *FlightRecorder) ObserveRun(r RunEvent) {
	f.mu.Lock()
	s := f.push()
	s.kind = flightRun
	s.run = r
	f.mu.Unlock()
}

// Len returns the number of retained events (at most the capacity).
func (f *FlightRecorder) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.live
}

// TotalObserved returns the number of events ever observed;
// TotalObserved() - Len() of them have been overwritten.
func (f *FlightRecorder) TotalObserved() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// Dump writes the retained events, oldest first, as trace JSONL —
// exactly the records a TraceWriter attached alongside the recorder
// would have emitted for those events, stamped with their original
// capture timestamps — so a dump validates with ValidateTrace and
// validates and analyzes with cmd/tracestat. Dump does not
// consume the ring: repeated dumps replay the same window.
func (f *FlightRecorder) Dump(w io.Writer) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var ts int64
	tw := NewTraceWriter(w, func() int64 { return ts })
	start := f.next - f.live
	if start < 0 {
		start += len(f.slots)
	}
	for k := 0; k < f.live; k++ {
		s := &f.slots[(start+k)%len(f.slots)]
		ts = s.ts
		switch s.kind {
		case flightGeneration:
			tw.ObserveGeneration(s.gen)
		case flightMigration:
			tw.ObserveMigration(s.mig)
		case flightRun:
			tw.ObserveRun(s.run)
		}
	}
	return tw.Err()
}
