// Package telemetry wires the observability layer (internal/obs) to the
// command-line surface shared by cmd/tradeoff and cmd/experiments: a
// -trace flag streaming JSONL telemetry to a file (every generation
// record with its phase breakdown), -phase-profile, and the flight
// recorder. It also holds the process-level helpers both commands share:
// the -cpuprofile/-memprofile Profiler, and DumpFlight and
// WatchFlightSignal for the flight recorder's SIGUSR1 and panic dumps.
// Only the commands call those; the engine packages never touch signals
// or pprof.
//
// The wall clock is injected by the caller — commands pass
// time.Now().UnixNano at their layer — so this package, like the rest of
// internal/*, never reads ambient time and a fixed clock reproduces
// traces byte for byte.
package telemetry

import (
	"bufio"
	"fmt"
	"os"

	"tradeoff/internal/obs"
)

// Config selects which telemetry sinks a Session opens. Zero values
// disable each sink; a fully zero Config yields a Session whose
// Observer is nil, which every observation site treats as "off".
type Config struct {
	// TracePath, when non-empty, creates (truncating) a JSONL trace file
	// receiving one object per telemetry event, and a PhaseTimer on
	// Clock so each generation record carries its phase breakdown.
	TracePath string
	// PhaseProfile, when true, creates the PhaseTimer without a trace
	// too, so the run records a phase-level wall-time profile.
	PhaseProfile bool
	// FlightRecorder, when > 0, attaches a flight recorder retaining the
	// last FlightRecorder telemetry events for on-demand dumps.
	FlightRecorder int
	// Clock timestamps trace records; nil stamps every record 0.
	Clock obs.Clock
}

// Session holds the open telemetry sinks for one command invocation.
type Session struct {
	observer  obs.Observer
	trace     *obs.TraceWriter
	traceBuf  *bufio.Writer
	traceFile *os.File
	phase     *obs.PhaseTimer
	flight    *obs.FlightRecorder
}

// Setup opens the sinks named by cfg. On error nothing is left open.
func Setup(cfg Config) (*Session, error) {
	s := &Session{}
	var parts []obs.Observer
	if cfg.TracePath != "" {
		f, err := os.Create(cfg.TracePath)
		if err != nil {
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		s.traceFile = f
		s.traceBuf = bufio.NewWriter(f)
		s.trace = obs.NewTraceWriter(s.traceBuf, cfg.Clock)
		parts = append(parts, s.trace)
	}
	if cfg.PhaseProfile || cfg.TracePath != "" {
		s.phase = obs.NewPhaseTimer(cfg.Clock)
	}
	if cfg.FlightRecorder > 0 {
		s.flight = obs.NewFlightRecorder(cfg.FlightRecorder, cfg.Clock)
		parts = append(parts, s.flight)
	}
	s.observer = obs.Combine(parts...)
	return s, nil
}

// Observer returns the combined observer to attach to a run, or nil
// when no sink is configured.
func (s *Session) Observer() obs.Observer {
	if s == nil {
		return nil
	}
	return s.observer
}

// PhaseTimer returns the phase profiler, or nil when neither a trace
// nor -phase-profile is on.
func (s *Session) PhaseTimer() *obs.PhaseTimer {
	if s == nil {
		return nil
	}
	return s.phase
}

// FlightRecorder returns the flight recorder, or nil when
// -flight-recorder is off.
func (s *Session) FlightRecorder() *obs.FlightRecorder {
	if s == nil {
		return nil
	}
	return s.flight
}

// Close flushes and closes the trace file. It is safe on a nil Session
// and reports the first error.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	var first error
	if s.trace != nil {
		if err := s.trace.Err(); err != nil && first == nil {
			first = err
		}
	}
	if s.traceBuf != nil {
		if err := s.traceBuf.Flush(); err != nil && first == nil {
			first = err
		}
	}
	if s.traceFile != nil {
		if err := s.traceFile.Close(); err != nil && first == nil {
			first = err
		}
		s.traceFile = nil
	}
	return first
}
