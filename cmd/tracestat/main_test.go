package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"tradeoff/internal/obs"
)

// genLine renders a v5 generation record with the given label, gen,
// hypervolume, and a uniform per-phase time.
func genLine(label string, gen int, hv float64, phaseNS int64) string {
	var phases strings.Builder
	for p := 0; p < obs.NumPhases; p++ {
		if p > 0 {
			phases.WriteByte(',')
		}
		fmt.Fprintf(&phases, "%d", phaseNS)
	}
	return fmt.Sprintf(`{"v":5,"type":"generation","ts":%d,"label":%q,"gen":%d,"pop":4,"full_evals":4,"delta_evals":0,"machines_simulated":8,"machines_inherited":0,"arena_occupancy":0.5,"phase_ns":[%s],"machines":2,"front_size":1,"hv":%g,"eps":0,"spread":0,"front":[[10,2]]}`,
		gen, label, gen, phases.String(), hv) + "\n"
}

func sampleTrace() string {
	var b strings.Builder
	// Label "a": improves every generation. Label "b": flat after gen 1.
	for g := 1; g <= 8; g++ {
		b.WriteString(genLine("a", g, float64(g), 1000))
		b.WriteString(genLine("b", g, 1.0, 0))
	}
	b.WriteString(`{"type":"migration","ts":100,"gen":4,"from":0,"to":1,"count":3}` + "\n")
	b.WriteString(`{"type":"migration","ts":101,"gen":4,"from":1,"to":0,"count":2}` + "\n")
	b.WriteString(`{"type":"migration","ts":102,"gen":8,"from":0,"to":1,"count":1}` + "\n")
	b.WriteString(`{"type":"run","ts":200,"dataset":"ds1","variant":"random","run":0,"seed":1,"hv":8,"max_utility":10,"front_size":1}` + "\n")
	return b.String()
}

func TestRunText(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, strings.NewReader(sampleTrace()), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"stdin: 16 generation, 3 migration, 1 run record(s)",
		"phase time (8 profiled generation(s)):",
		"select",
		"migration",
		"label a: generations 1-8 (8 record(s))",
		"hypervolume 1 -> 8 (best 8 at generation 8)",
		"label b:",
		"islands: 2 island(s), 2 migration tick(s), 6 migrant(s), tick skew 4",
		"island 0: 4 migrant(s) sent, last tick at generation 8",
		"island 1: 2 migrant(s) sent, last tick at generation 4",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunJSON(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-json"}, strings.NewReader(sampleTrace()), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	var an obs.TraceAnalysis
	if err := json.Unmarshal([]byte(out.String()), &an); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if an.Records.Generations != 16 || an.Records.Migrations != 3 || an.Records.Runs != 1 {
		t.Fatalf("record counts %+v", an.Records)
	}
	if an.ProfiledGenerations != 8 {
		t.Fatalf("ProfiledGenerations = %d, want 8", an.ProfiledGenerations)
	}
	if len(an.Phases) != obs.NumPhases {
		t.Fatalf("got %d phases, want %d", len(an.Phases), obs.NumPhases)
	}
	if len(an.Labels) != 2 {
		t.Fatalf("got %d labels, want 2", len(an.Labels))
	}
	if an.Islands == nil || an.Islands.Islands != 2 {
		t.Fatalf("islands summary %+v", an.Islands)
	}
}

func TestRunStall(t *testing.T) {
	var b strings.Builder
	for g := 1; g <= 10; g++ {
		b.WriteString(genLine("flat", g, 1.0, 0))
	}
	trace := b.String()

	var out, errb strings.Builder
	if code := run([]string{"-stall-window", "5"}, strings.NewReader(trace), &out, &errb); code != 0 {
		t.Fatalf("without -fail-on-stall: exit %d, stderr %q", code, errb.String())
	}
	if !strings.Contains(out.String(), "<- stalled") {
		t.Fatalf("text output lacks stall marker:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-stall-window", "5", "-fail-on-stall"}, strings.NewReader(trace), &out, &errb); code != 3 {
		t.Fatalf("with -fail-on-stall: exit %d, want 3 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "convergence stall detected") {
		t.Fatalf("stderr %q", errb.String())
	}
}

func TestRunNoStallExitZero(t *testing.T) {
	var b strings.Builder
	for g := 1; g <= 10; g++ {
		b.WriteString(genLine("up", g, float64(g), 0))
	}
	var out, errb strings.Builder
	if code := run([]string{"-stall-window", "5", "-fail-on-stall"}, strings.NewReader(b.String()), &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0 (stderr %q)", code, errb.String())
	}
}

func TestRunInvalidTrace(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, strings.NewReader("not json\n"), &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "tracestat: stdin:") {
		t.Fatalf("stderr %q", errb.String())
	}
}

func TestRunFile(t *testing.T) {
	path := t.TempDir() + "/trace.jsonl"
	if err := os.WriteFile(path, []byte(sampleTrace()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := run([]string{path}, nil, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	if !strings.Contains(out.String(), path+": 16 generation") {
		t.Fatalf("stdout %q", out.String())
	}
}

func TestRunMissingFile(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"/does/not/exist.jsonl"}, nil, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestRunTooManyArgs: tracestat reads one trace per invocation, so two
// file arguments are a usage error (exit 2) that prints the usage line,
// even when both files hold valid traces.
func TestRunTooManyArgs(t *testing.T) {
	dir := t.TempDir()
	a, b := dir+"/a.jsonl", dir+"/b.jsonl"
	for _, p := range []string{a, b} {
		if err := os.WriteFile(p, []byte(sampleTrace()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out, errb strings.Builder
	if code := run([]string{a, b}, nil, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("stdout %q, want nothing", out.String())
	}
	for _, want := range []string{"tracestat: 2 trace files given, want at most one", "usage: tracestat [flags] [trace.jsonl]"} {
		if !strings.Contains(errb.String(), want) {
			t.Fatalf("stderr %q lacks %q", errb.String(), want)
		}
	}
}

func TestRunSecondFileMissing(t *testing.T) {
	path := t.TempDir() + "/trace.jsonl"
	if err := os.WriteFile(path, []byte(sampleTrace()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := run([]string{path, "/does/not/exist.jsonl"}, nil, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// legacyTrace is a v1 trace (records without a "v" field) holding one
// record of each type.
const legacyTrace = `{"type":"generation","ts":1,"label":"ds1/x","gen":1,"pop":4,"full_evals":4,"delta_evals":0,"machines_simulated":8,"machines_inherited":0,"dirty_mean":1,"dirty_max":2,"machines":2,"front_size":1,"hv":3.5,"eps":0,"spread":0,"front":[[10,2]]}
{"type":"migration","ts":2,"gen":5,"from":0,"to":1,"count":3}
{"type":"run","ts":3,"dataset":"ds1","variant":"random","run":0,"seed":1,"hv":4,"max_utility":10,"front_size":1}
`

func TestRunStdin(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, strings.NewReader(legacyTrace), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	if want := "stdin: 1 generation, 1 migration, 1 run record(s)\n"; !strings.HasPrefix(out.String(), want) {
		t.Fatalf("stdout %q, want prefix %q", out.String(), want)
	}
}

func TestRunFileLegacy(t *testing.T) {
	path := t.TempDir() + "/trace.jsonl"
	if err := os.WriteFile(path, []byte(legacyTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := run([]string{path}, nil, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	if want := path + ": 1 generation, 1 migration, 1 run record(s)\n"; !strings.HasPrefix(out.String(), want) {
		t.Fatalf("stdout %q, want prefix %q", out.String(), want)
	}
}

func TestRunMissingFileNamesPath(t *testing.T) {
	path := t.TempDir() + "/absent.jsonl"
	var out, errb strings.Builder
	if code := run([]string{path}, nil, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "tracestat: ") || !strings.Contains(errb.String(), path) {
		t.Fatalf("stderr %q, want the missing path", errb.String())
	}
}

func TestRunViolations(t *testing.T) {
	cases := []struct {
		name  string
		trace string
	}{
		{"empty", ""},
		{"garbage", "not json\n"},
		{"bad type", `{"type":"nope","ts":1}` + "\n"},
		{"non-increasing gen", strings.Repeat(genLine("a", 1, 0, 0), 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb strings.Builder
			if code := run(nil, strings.NewReader(tc.trace), &out, &errb); code != 1 {
				t.Fatalf("exit %d, want 1 (stderr %q)", code, errb.String())
			}
		})
	}
}

func TestRunReportsLineAndRecordType(t *testing.T) {
	trace := legacyTrace + `{"type":"migration","ts":9,"gen":5,"from":0}` + "\n"
	var out, errb strings.Builder
	if code := run(nil, strings.NewReader(trace), &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "tracestat: stdin:4: migration record:") {
		t.Fatalf("stderr %q, want line and record type", errb.String())
	}
}

func TestRunReportsLineForUnparseable(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, strings.NewReader("not json\n"), &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "tracestat: stdin:1:") {
		t.Fatalf("stderr %q, want line number", errb.String())
	}
}

// TestRunNamesFailingFile: a schema violation in a file reports the
// file, the line and the record type.
func TestRunNamesFailingFile(t *testing.T) {
	path := t.TempDir() + "/bad.jsonl"
	if err := os.WriteFile(path, []byte(strings.Repeat(genLine("a", 1, 0, 0), 2)), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := run([]string{path}, nil, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if want := "tracestat: " + path + ":2: generation record: generation 1"; !strings.Contains(errb.String(), want) {
		t.Fatalf("stderr %q, want %q", errb.String(), want)
	}
}
