package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tradeoff/internal/analysis"
	"tradeoff/internal/core"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/obs"
)

// runMainEnv, when set to 1, makes the test binary run the command's
// main on its arguments instead of the tests.
const runMainEnv = "TRADEOFF_TEST_RUN_MAIN"

// TestMain lets the test binary stand in for the command, so tests can
// drive the real flag parsing and exit codes.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRemovedFlagsRejected pins the removal of the -kernel, -evaluation
// and -archive-spill switches: there is one simulation kernel, one
// offspring evaluation path and one in-memory front archive, so all
// three flags are unknown.
func TestRemovedFlagsRejected(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-kernel", "scalar"}, {"-evaluation", "full"}, {"-archive-spill", "64"}} {
		cmd := exec.Command(exe, append(args, "-generations", "1", "-pop", "4", "-tasks", "10")...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("%v: want a non-zero exit, got %v:\n%s", args, err, out)
		}
		if want := "flag provided but not defined: " + args[0]; !strings.Contains(string(out), want) {
			t.Fatalf("%v: output lacks %q:\n%s", args, want, out)
		}
	}
}

// TestArchiveFlagBoundsCSV drives the real command: the same run writes
// more than 3 front rows without -archive and at most 3 with -archive 3.
func TestArchiveFlagBoundsCSV(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	rows := func(extra ...string) int {
		t.Helper()
		path := filepath.Join(t.TempDir(), "front.csv")
		args := append([]string{"-tasks", "60", "-generations", "20", "-pop", "16", "-csv", path}, extra...)
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Count(string(data), "\n") - 1 // minus the header
	}
	if full := rows(); full <= 3 {
		t.Fatalf("unarchived front has %d rows; the run is too small to show the bound", full)
	}
	if got := rows("-archive", "3"); got < 1 || got > 3 {
		t.Fatalf("-archive 3 wrote %d front rows, want 1..3", got)
	}
}

// TestTraceWritesSchemaV5 drives the real command with -trace: every
// generation record is stamped with the current schema version, carries
// none of the fields v5 retired, and the trace validates.
func TestTraceWritesSchemaV5(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	cmd := exec.Command(exe, "-tasks", "30", "-generations", "3", "-pop", "8", "-trace", path)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gens := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec["type"] != "generation" {
			continue
		}
		gens++
		if rec["v"] != 5.0 {
			t.Fatalf("record v=%v, want 5: %s", rec["v"], line)
		}
		for _, k := range []string{
			"cache_hits", "cache_misses", "cache_hit_rate",
			"machine_cache_hits", "machine_cache_misses", "machine_cache_hit_rate",
			"typed_tasks", "typed_runs", "dirty_mean", "dirty_max",
		} {
			if _, ok := rec[k]; ok {
				t.Fatalf("generation record carries retired field %s: %s", k, line)
			}
		}
	}
	if gens != 3 {
		t.Fatalf("%d generation records, want 3", gens)
	}
	if _, err := obs.ValidateTrace(strings.NewReader(string(data))); err != nil {
		t.Fatal(err)
	}
}

func TestParseSeeds(t *testing.T) {
	seeds, err := parseSeeds("min-energy, max-utility")
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 2 || seeds[0] != heuristics.MinEnergy || seeds[1] != heuristics.MaxUtility {
		t.Fatalf("parseSeeds = %v", seeds)
	}
	if s, err := parseSeeds(""); err != nil || s != nil {
		t.Fatal("empty seed list should be nil")
	}
	if s, err := parseSeeds(" , "); err != nil || s != nil {
		t.Fatal("blank entries should be skipped")
	}
	if _, err := parseSeeds("bogus"); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
}

func TestWriteCSV(t *testing.T) {
	res := &core.Result{Front: []analysis.FrontPoint{
		{Utility: 10, Energy: 2e6},
		{Utility: 20, Energy: 3e6},
	}}
	path := filepath.Join(t.TempDir(), "front.csv")
	if err := writeCSV(path, res); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d CSV lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "utility,energy_joules") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "2.000000") { // energy in MJ
		t.Fatalf("row = %q", lines[1])
	}
}

func TestBuildFrameworkDatasets(t *testing.T) {
	fw, name, err := buildFramework(1, "", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if name != "dataset1" || fw.Trace().NumTasks() != 250 {
		t.Fatalf("dataset1: name=%q tasks=%d", name, fw.Trace().NumTasks())
	}
	// Task-count override.
	fw2, _, err := buildFramework(1, "", 42, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fw2.Trace().NumTasks() != 42 {
		t.Fatalf("override tasks = %d", fw2.Trace().NumTasks())
	}
	if _, _, err := buildFramework(9, "", 0, 0, 1); err == nil {
		t.Fatal("bad dataset accepted")
	}
	if _, _, err := buildFramework(1, "/nonexistent.json", 0, 0, 1); err == nil {
		t.Fatal("missing system file accepted")
	}
}
