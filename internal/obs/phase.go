package obs

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Phase labels one timed section of the engine's generation loop (the
// phase taxonomy of DESIGN.md §14). Order repair is not a separate
// phase: crossover, order repair, and mutation run fused inside the
// parallel variation fan-out, so their cost lands in PhaseVariation.
type Phase int

const (
	// PhaseSelect is serial parent selection: the per-offspring draws
	// that consume the engine rng in a worker-independent order.
	PhaseSelect Phase = iota
	// PhaseVariation is crossover + order repair + mutation, including
	// the offspring arena draws. It runs fused with PhaseEval in one
	// parallel breeding fan-out, whose wall time the engine splits
	// between the two in the proportion its workers measured.
	PhaseVariation
	// PhaseCacheProbe is retired and always 0: it timed the serial
	// probe of the fitness-memoization cache, which was removed because
	// its hit ratio on the benchmark workloads stayed below 2%. Kept so
	// the phase table and the v4 trace's phase_ns array keep their
	// layout.
	PhaseCacheProbe
	// PhaseEval is offspring evaluation: parent-row inheritance, the
	// kernel simulation of the remaining machines, and the reduction to
	// objective values.
	PhaseEval
	// PhaseCacheInsert is retired and always 0, like PhaseCacheProbe
	// (it timed the cache's serial insert).
	PhaseCacheInsert
	// PhaseSort is survivor selection over the 2N meta-population:
	// nondominated sort, crowding distance, and the truncated fill.
	PhaseSort
	// PhaseArchive is the ε-dominance archive compaction of the final
	// front (core.Options.ArchiveSize), recorded once per run.
	PhaseArchive
	// PhaseMigration is island ring migration: elite collection and
	// injection, one bracket per island per tick. The ring-edge mailbox
	// wait between them is not included.
	PhaseMigration
)

// NumPhases is the phase-taxonomy size: the length of PhaseTotals and
// of the v4 trace schema's phase_ns array.
const NumPhases = int(PhaseMigration) + 1

// String returns the phase's canonical snake_case name, used in metric
// names, trace analytics, and profile summaries.
func (p Phase) String() string {
	switch p {
	case PhaseSelect:
		return "select"
	case PhaseVariation:
		return "variation"
	case PhaseCacheProbe:
		return "cache_probe"
	case PhaseEval:
		return "eval"
	case PhaseCacheInsert:
		return "cache_insert"
	case PhaseSort:
		return "sort"
	case PhaseArchive:
		return "archive"
	case PhaseMigration:
		return "migration"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// PhaseTotals is a per-phase value table indexed by Phase. It is a
// fixed-size array passed by value, so handing totals around allocates
// nothing and never aliases live timer state.
type PhaseTotals [NumPhases]int64

// PhaseTimer accumulates wall time per phase on the injected Clock.
// A nil *PhaseTimer is a no-op, so instrumented call sites stay
// branch-cheap when profiling is off; a timer with a nil clock records
// zero durations (but still counts brackets), which keeps benchmarks
// and determinism tests free of ambient time.
//
// Record uses fixed-slot atomic adds: one timer may be shared by every
// island of an island-model run, aggregating their phase time without
// locks and without ever influencing results.
type PhaseTimer struct {
	clock Clock
	ns    [NumPhases]atomic.Int64
	count [NumPhases]atomic.Int64
}

// NewPhaseTimer returns a timer reading the injected clock (nil for a
// constant-zero clock). A timer shared across goroutines — one timer
// for every island — calls the clock concurrently, so the clock
// must be safe for concurrent use (time.Now-style clocks are).
func NewPhaseTimer(clock Clock) *PhaseTimer {
	return &PhaseTimer{clock: clock}
}

// Start opens a phase bracket and returns its start timestamp. On a nil
// timer (or nil clock) it returns 0.
//
//detlint:hotpath
func (t *PhaseTimer) Start() int64 {
	if t == nil || t.clock == nil {
		return 0
	}
	return t.clock()
}

// Record closes a phase bracket opened by Start, attributing the
// elapsed nanoseconds to p. No-op on a nil timer; allocation-free
// always (two atomic adds into constant slots).
//
//detlint:hotpath
func (t *PhaseTimer) Record(p Phase, start int64) {
	if t == nil {
		return
	}
	var now int64
	if t.clock != nil {
		now = t.clock()
	}
	t.ns[p].Add(now - start)
	t.count[p].Add(1)
}

// Add attributes ns nanoseconds to p as one bracket, for a caller that
// timed a fused section itself and splits it between phases. No-op on
// a nil timer.
//
//detlint:hotpath
func (t *PhaseTimer) Add(p Phase, ns int64) {
	if t == nil {
		return
	}
	t.ns[p].Add(ns)
	t.count[p].Add(1)
}

// Totals returns the accumulated nanoseconds per phase. Safe on a nil
// timer (all zero) and during concurrent recording (each slot is read
// atomically; the table is not a single snapshot).
func (t *PhaseTimer) Totals() PhaseTotals {
	var out PhaseTotals
	if t == nil {
		return out
	}
	for p := range out {
		out[p] = t.ns[p].Load()
	}
	return out
}

// Counts returns the number of recorded brackets per phase, with the
// same nil and concurrency behavior as Totals.
func (t *PhaseTimer) Counts() PhaseTotals {
	var out PhaseTotals
	if t == nil {
		return out
	}
	for p := range out {
		out[p] = t.count[p].Load()
	}
	return out
}

// WriteSummary renders the accumulated profile as an aligned per-phase
// table: bracket count, total milliseconds, mean microseconds, and the
// share of all recorded phase time. A nil timer writes nothing.
func (t *PhaseTimer) WriteSummary(w io.Writer) error {
	if t == nil {
		return nil
	}
	tot := t.Totals()
	cnt := t.Counts()
	var sum int64
	for _, ns := range tot {
		sum += ns
	}
	if _, err := fmt.Fprintf(w, "  %-14s %10s %14s %12s %7s\n",
		"phase", "count", "total (ms)", "mean (us)", "share"); err != nil {
		return err
	}
	for p := Phase(0); int(p) < NumPhases; p++ {
		mean := 0.0
		if cnt[p] > 0 {
			mean = float64(tot[p]) / float64(cnt[p]) / 1e3
		}
		share := 0.0
		if sum > 0 {
			share = 100 * float64(tot[p]) / float64(sum)
		}
		if _, err := fmt.Fprintf(w, "  %-14s %10d %14.3f %12.3f %6.1f%%\n",
			p, cnt[p], float64(tot[p])/1e6, mean, share); err != nil {
			return err
		}
	}
	return nil
}
