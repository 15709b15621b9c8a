package obs

import (
	"io"
	"math"
	"strconv"
)

// TraceSchemaVersion is the version stamped on every emitted record as
// the "v" field. Version history:
//
//	v1 (implicit; records carry no "v" field): the original schema.
//	v2: every record carries "v"; generation records gain the
//	    fitness-memoization and arena fields cache_hits, cache_misses,
//	    cache_hit_rate, and arena_occupancy.
//	v3: generation records gain the machine-bucket memoization and
//	    typed-kernel fields machine_cache_hits, machine_cache_misses,
//	    machine_cache_hit_rate, typed_tasks, and typed_runs.
//	v4: generation records gain phase_ns, a NumPhases-length array of
//	    per-phase step nanoseconds indexed by Phase (all zero when no
//	    PhaseTimer was attached).
//	v5: generation records drop ten retired fields: cache_hits,
//	    cache_misses, cache_hit_rate, machine_cache_hits,
//	    machine_cache_misses, machine_cache_hit_rate, typed_tasks and
//	    typed_runs, which read 0 once their mechanisms were removed,
//	    and dirty_mean/dirty_max, an upper bound on the machines
//	    variation touched that machines_simulated/machines_inherited
//	    count exactly.
//
// ValidateTrace keeps reading v1–v4 records under their own rules.
const TraceSchemaVersion = 5

// TraceWriter is an Observer that appends one JSON object per event to
// an io.Writer (JSONL). Records are hand-encoded with strconv into a
// recycled buffer: no reflection, no map iteration, and fixed key
// order, so a seeded run traced with an injected clock produces
// byte-identical output across repeats.
//
// Timestamps come from the injected Clock (nanoseconds); a nil clock
// stamps every record 0. The writer is not safe for concurrent use —
// the engine and runners emit events serially.
type TraceWriter struct {
	w     io.Writer
	clock Clock
	buf   []byte
	err   error
}

// NewTraceWriter returns a TraceWriter emitting to w with timestamps
// from clock (nil for a constant-zero clock).
func NewTraceWriter(w io.Writer, clock Clock) *TraceWriter {
	return &TraceWriter{w: w, clock: clock, buf: make([]byte, 0, 1024)}
}

// Err returns the first write error, if any. After an error the writer
// drops subsequent events.
func (t *TraceWriter) Err() error { return t.err }

// Flush flushes the underlying writer if it is buffered (exposes a
// Flush() error method), and surfaces any sticky write error.
func (t *TraceWriter) Flush() error {
	if t.err != nil {
		return t.err
	}
	if f, ok := t.w.(interface{ Flush() error }); ok {
		t.err = f.Flush()
	}
	return t.err
}

// now returns the current injected timestamp.
func (t *TraceWriter) now() int64 {
	if t.clock == nil {
		return 0
	}
	return t.clock()
}

// emit writes the completed buffer as one line.
func (t *TraceWriter) emit() {
	t.buf = append(t.buf, '}', '\n')
	if _, err := t.w.Write(t.buf); err != nil {
		t.err = err
	}
}

// ObserveGeneration implements Observer: emits a "generation" record
// with evaluation-kernel counters, arena occupancy, phase times,
// convergence indicators, and the full front point list.
//
//detlint:hotpath
func (t *TraceWriter) ObserveGeneration(g GenerationStats) {
	if t.err != nil {
		return
	}
	t.buf = t.buf[:0]
	t.buf = append(t.buf, `{"type":"generation","v":`...)
	t.buf = strconv.AppendInt(t.buf, TraceSchemaVersion, 10)
	t.buf = append(t.buf, `,"ts":`...)
	t.buf = strconv.AppendInt(t.buf, t.now(), 10)
	t.buf = append(t.buf, `,"label":`...)
	t.buf = strconv.AppendQuote(t.buf, g.Label)
	t.buf = append(t.buf, `,"gen":`...)
	t.buf = strconv.AppendInt(t.buf, int64(g.Generation), 10)
	t.buf = append(t.buf, `,"pop":`...)
	t.buf = strconv.AppendInt(t.buf, int64(g.Population), 10)
	t.buf = append(t.buf, `,"full_evals":`...)
	t.buf = strconv.AppendInt(t.buf, int64(g.FullEvals), 10)
	t.buf = append(t.buf, `,"delta_evals":`...)
	t.buf = strconv.AppendInt(t.buf, int64(g.DeltaEvals), 10)
	t.buf = append(t.buf, `,"machines_simulated":`...)
	t.buf = strconv.AppendInt(t.buf, int64(g.MachinesSimulated), 10)
	t.buf = append(t.buf, `,"machines_inherited":`...)
	t.buf = strconv.AppendInt(t.buf, int64(g.MachinesInherited), 10)
	t.buf = append(t.buf, `,"arena_occupancy":`...)
	t.buf = appendJSONFloat(t.buf, g.ArenaOccupancy())
	t.buf = append(t.buf, `,"phase_ns":[`...)
	for p, ns := range g.PhaseNanos {
		if p > 0 {
			t.buf = append(t.buf, ',')
		}
		t.buf = strconv.AppendInt(t.buf, ns, 10)
	}
	t.buf = append(t.buf, ']')
	t.buf = append(t.buf, `,"machines":`...)
	t.buf = strconv.AppendInt(t.buf, int64(g.NumMachines), 10)
	t.buf = append(t.buf, `,"front_size":`...)
	t.buf = strconv.AppendInt(t.buf, int64(g.Indicators.FrontSize), 10)
	t.buf = append(t.buf, `,"hv":`...)
	t.buf = appendJSONFloat(t.buf, g.Indicators.Hypervolume)
	t.buf = append(t.buf, `,"eps":`...)
	t.buf = appendJSONFloat(t.buf, g.Indicators.Epsilon)
	t.buf = append(t.buf, `,"spread":`...)
	t.buf = appendJSONFloat(t.buf, g.Indicators.Spread)
	t.buf = append(t.buf, `,"front":[`...)
	for i, p := range g.Front {
		if i > 0 {
			t.buf = append(t.buf, ',')
		}
		t.buf = append(t.buf, '[')
		t.buf = appendJSONFloat(t.buf, p[0])
		t.buf = append(t.buf, ',')
		t.buf = appendJSONFloat(t.buf, p[1])
		t.buf = append(t.buf, ']')
	}
	t.buf = append(t.buf, ']')
	t.emit()
}

// ObserveMigration implements Observer: emits a "migration" record.
func (t *TraceWriter) ObserveMigration(m MigrationEvent) {
	if t.err != nil {
		return
	}
	t.buf = t.buf[:0]
	t.buf = append(t.buf, `{"type":"migration","v":`...)
	t.buf = strconv.AppendInt(t.buf, TraceSchemaVersion, 10)
	t.buf = append(t.buf, `,"ts":`...)
	t.buf = strconv.AppendInt(t.buf, t.now(), 10)
	t.buf = append(t.buf, `,"gen":`...)
	t.buf = strconv.AppendInt(t.buf, int64(m.Generation), 10)
	t.buf = append(t.buf, `,"from":`...)
	t.buf = strconv.AppendInt(t.buf, int64(m.From), 10)
	t.buf = append(t.buf, `,"to":`...)
	t.buf = strconv.AppendInt(t.buf, int64(m.To), 10)
	t.buf = append(t.buf, `,"count":`...)
	t.buf = strconv.AppendInt(t.buf, int64(m.Count), 10)
	t.emit()
}

// ObserveRun implements Observer: emits a "run" record.
func (t *TraceWriter) ObserveRun(r RunEvent) {
	if t.err != nil {
		return
	}
	t.buf = t.buf[:0]
	t.buf = append(t.buf, `{"type":"run","v":`...)
	t.buf = strconv.AppendInt(t.buf, TraceSchemaVersion, 10)
	t.buf = append(t.buf, `,"ts":`...)
	t.buf = strconv.AppendInt(t.buf, t.now(), 10)
	t.buf = append(t.buf, `,"dataset":`...)
	t.buf = strconv.AppendQuote(t.buf, r.Dataset)
	t.buf = append(t.buf, `,"variant":`...)
	t.buf = strconv.AppendQuote(t.buf, r.Variant)
	t.buf = append(t.buf, `,"run":`...)
	t.buf = strconv.AppendInt(t.buf, int64(r.Run), 10)
	t.buf = append(t.buf, `,"seed":`...)
	t.buf = strconv.AppendUint(t.buf, r.Seed, 10)
	t.buf = append(t.buf, `,"hv":`...)
	t.buf = appendJSONFloat(t.buf, r.Hypervolume)
	t.buf = append(t.buf, `,"max_utility":`...)
	t.buf = appendJSONFloat(t.buf, r.MaxUtility)
	t.buf = append(t.buf, `,"front_size":`...)
	t.buf = strconv.AppendInt(t.buf, int64(r.FrontSize), 10)
	t.emit()
}

// appendJSONFloat appends a float as a JSON value in shortest round-trip
// form; NaN and infinities, which JSON cannot carry, render as null.
func appendJSONFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
