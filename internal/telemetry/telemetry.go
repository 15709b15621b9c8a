// Package telemetry wires the observability layer (internal/obs) to the
// command-line surface shared by cmd/tradeoff and cmd/experiments: a
// -trace flag streaming JSONL telemetry to a file, and a -metrics-addr
// flag serving the metric registry over HTTP in Prometheus text format
// (with an expvar-style JSON view alongside). It also holds the
// process-level helpers both commands share: the -cpuprofile/-memprofile
// Profiler, and DumpFlight and WatchFlightSignal for the flight
// recorder's SIGUSR1 and panic dumps. Only the commands call those; the
// engine packages never touch signals or pprof.
//
// The wall clock is injected by the caller — commands pass
// time.Now().UnixNano at their layer — so this package, like the rest of
// internal/*, never reads ambient time and a fixed clock reproduces
// traces byte for byte.
package telemetry

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"

	"tradeoff/internal/obs"
)

// Config selects which telemetry sinks a Session opens. Zero values
// disable each sink; a fully zero Config yields a Session whose
// Observer is nil, which every observation site treats as "off".
type Config struct {
	// TracePath, when non-empty, creates (truncating) a JSONL trace file
	// receiving one object per telemetry event.
	TracePath string
	// MetricsAddr, when non-empty, serves GET /metrics (Prometheus text)
	// and GET /metrics.json (expvar-style JSON) on this TCP address.
	MetricsAddr string
	// PhaseProfile, when true, creates a PhaseTimer on Clock so the run
	// records a phase-level wall-time profile (and, with a trace or
	// metrics sink, per-generation phase breakdowns).
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
	registry  *obs.Registry
	trace     *obs.TraceWriter
	traceBuf  *bufio.Writer
	traceFile *os.File
	server    *http.Server
	listener  net.Listener
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
	if cfg.PhaseProfile {
		s.phase = obs.NewPhaseTimer(cfg.Clock)
	}
	if cfg.FlightRecorder > 0 {
		s.flight = obs.NewFlightRecorder(cfg.FlightRecorder, cfg.Clock)
		parts = append(parts, s.flight)
	}
	if cfg.MetricsAddr != "" {
		ln, err := net.Listen("tcp", cfg.MetricsAddr)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		s.listener = ln
		s.registry = obs.NewRegistry()
		parts = append(parts, obs.NewMetrics(s.registry))
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			s.registry.WritePrometheus(w)
		})
		mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			s.registry.WriteJSON(w)
		})
		s.server = &http.Server{Handler: mux}
		go s.server.Serve(ln) //nolint:errcheck // Serve always returns on Close
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

// Registry returns the metric registry, or nil when -metrics-addr is
// off.
func (s *Session) Registry() *obs.Registry {
	if s == nil {
		return nil
	}
	return s.registry
}

// PhaseTimer returns the phase profiler, or nil when -phase-profile is
// off.
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

// IslandBoard registers per-island health gauges for an island run, or
// returns nil when metrics are off or islands < 2. Call at most once
// per session (gauge names are registered on first call).
func (s *Session) IslandBoard(islands int) *obs.IslandBoard {
	if s == nil || s.registry == nil || islands < 2 {
		return nil
	}
	return obs.NewIslandBoard(s.registry, islands)
}

// DistBoard registers wire-health metrics for a distributed island
// run, or returns nil when metrics are off or workers < 1. Call at
// most once per session (metric names are registered on first call).
func (s *Session) DistBoard(workers int) *obs.DistBoard {
	if s == nil || s.registry == nil || workers < 1 {
		return nil
	}
	return obs.NewDistBoard(s.registry, workers)
}

// MetricsURL returns the resolved base URL of the metrics server, or ""
// when it is off. Useful when the configured address had port 0.
func (s *Session) MetricsURL() string {
	if s == nil || s.listener == nil {
		return ""
	}
	return "http://" + s.listener.Addr().String() + "/metrics"
}

// Close flushes and closes the trace file and shuts the metrics server
// down. It is safe on a nil Session and reports the first error.
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
	if s.server != nil {
		if err := s.server.Close(); err != nil && first == nil {
			first = err
		}
		s.server = nil
	}
	return first
}
