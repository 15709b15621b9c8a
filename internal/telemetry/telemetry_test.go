package telemetry

import (
	"os"
	"path/filepath"
	"testing"

	"tradeoff/internal/obs"
)

func sampleGeneration() obs.GenerationStats {
	return obs.GenerationStats{
		Label:             "ds1/test",
		Generation:        1,
		Population:        4,
		Front:             [][]float64{{10, 2}},
		FullEvals:         4,
		MachinesSimulated: 8,
		NumMachines:       2,
		Indicators:        obs.Indicators{Hypervolume: 3.5, FrontSize: 1},
	}
}

func TestSetupDisabled(t *testing.T) {
	s, err := Setup(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Observer() != nil {
		t.Fatal("zero config must yield a nil observer")
	}
	if s.PhaseTimer() != nil || s.FlightRecorder() != nil {
		t.Fatal("zero config opened a sink")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var nilSession *Session
	if nilSession.Observer() != nil || nilSession.Close() != nil {
		t.Fatal("nil session must be inert")
	}
}

func TestSetupTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	var ticks int64
	s, err := Setup(Config{TracePath: path, Clock: func() int64 { ticks += 7; return ticks }})
	if err != nil {
		t.Fatal(err)
	}
	o := s.Observer()
	if o == nil {
		t.Fatal("trace config yielded no observer")
	}
	if s.PhaseTimer() == nil {
		t.Fatal("a traced session must time phases without -phase-profile")
	}
	o.ObserveGeneration(sampleGeneration())
	o.ObserveMigration(obs.MigrationEvent{Generation: 5, From: 0, To: 1, Count: 2})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum, err := obs.ValidateTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Generations != 1 || sum.Migrations != 1 {
		t.Fatalf("summary %+v", sum)
	}
}

func TestSetupBadTracePath(t *testing.T) {
	if _, err := Setup(Config{TracePath: filepath.Join(t.TempDir(), "no", "such", "dir", "t.jsonl")}); err == nil {
		t.Fatal("uncreatable trace path accepted")
	}
}
