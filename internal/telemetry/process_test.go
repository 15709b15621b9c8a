package telemetry

import (
	"os"
	"path/filepath"
	"testing"

	"tradeoff/internal/obs"
)

// TestDumpFlightWritesValidTrace dumps a flight recorder holding one
// generation to a file and checks that the file is a valid trace.
func TestDumpFlightWritesValidTrace(t *testing.T) {
	fr := obs.NewFlightRecorder(4, nil)
	fr.ObserveGeneration(sampleGeneration())
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	DumpFlight("test", fr, path, "unit test")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum, err := obs.ValidateTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Generations != 1 {
		t.Fatalf("dump holds %d generation records, want 1", sum.Generations)
	}
	DumpFlight("test", nil, path, "nil recorder") // no-op, must not panic
}

// TestProfilerWritesProfilesOnce starts CPU and heap profiling, stops
// twice, and checks both files were written by the first Stop.
func TestProfilerWritesProfilesOnce(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "heap.pprof")
	p, err := StartProfiler(cpu, heap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := p.Stop(); err != nil {
			t.Fatalf("Stop %d: %v", i+1, err)
		}
	}
	for _, path := range []string{cpu, heap} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("%s not written (err %v)", path, err)
		}
	}
	var nilProf *Profiler
	if err := nilProf.Stop(); err != nil {
		t.Fatal(err)
	}
}
