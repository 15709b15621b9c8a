package obs

import (
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

// countingClock returns a Clock ticking by step from start on each call.
func countingClock(start, step int64) Clock {
	t := start - step
	return func() int64 {
		t += step
		return t
	}
}

func sampleGeneration(gen int) GenerationStats {
	return GenerationStats{
		Label: "ds1", Generation: gen, Population: 4,
		Front:     [][]float64{{10.5, 2.25}, {8, 1}},
		FullEvals: 1, DeltaEvals: 2, CacheHits: 1, CacheMisses: 3,
		ArenaInUse: 12, ArenaSlots: 16,
		MachinesSimulated: 6, MachinesInherited: 12,
		MachineCacheHits: 4, MachineCacheMisses: 6,
		TypedTasks: 20, TypedRuns: 8,
		NumMachines: 6,
		PhaseNanos:  PhaseTotals{100, 200, 300, 400, 500, 600, 700, 800},
		Indicators:  Indicators{Hypervolume: 38.5, Epsilon: -0.5, Spread: 0.1, FrontSize: 2},
	}
}

func writeSampleTrace(w io.Writer, clock Clock) error {
	tw := NewTraceWriter(w, clock)
	for gen := 1; gen <= 3; gen++ {
		tw.ObserveGeneration(sampleGeneration(gen))
	}
	tw.ObserveMigration(MigrationEvent{Generation: 3, From: 0, To: 1, Count: 2})
	tw.ObserveRun(RunEvent{Dataset: "ds1", Variant: "base", Run: 0, Seed: 42, Hypervolume: 38.5, MaxUtility: 10.5, FrontSize: 2})
	return tw.Err()
}

func TestTraceWriterRecordsParseAndRoundTrip(t *testing.T) {
	var sb strings.Builder
	if err := writeSampleTrace(&sb, countingClock(1000, 10)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("trace has %d lines, want 5:\n%s", len(lines), sb.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 not valid JSON: %v", err)
	}
	for k, want := range map[string]any{
		"type": "generation", "v": float64(TraceSchemaVersion),
		"ts": 1000.0, "label": "ds1", "gen": 1.0,
		"pop": 4.0, "full_evals": 1.0, "delta_evals": 2.0,
		"machines_simulated": 6.0, "machines_inherited": 12.0,
		"arena_occupancy": 0.75, "machines": 6.0,
		"front_size": 2.0, "hv": 38.5, "eps": -0.5, "spread": 0.1,
	} {
		if first[k] != want {
			t.Fatalf("generation record %s = %v, want %v", k, first[k], want)
		}
	}
	// v5 drops the retired fields, though the sample sets the retired
	// struct fields the benchmark still reads.
	for _, k := range retiredFields {
		if _, ok := first[k]; ok {
			t.Fatalf("generation record carries retired field %s: %s", k, lines[0])
		}
	}
	phases, ok := first["phase_ns"].([]any)
	if !ok || len(phases) != NumPhases {
		t.Fatalf("generation record phase_ns = %v, want %d-entry array", first["phase_ns"], NumPhases)
	}
	for p, v := range phases {
		if v != float64((p+1)*100) {
			t.Fatalf("phase_ns[%d] = %v, want %d", p, v, (p+1)*100)
		}
	}
	var mig map[string]any
	if err := json.Unmarshal([]byte(lines[3]), &mig); err != nil {
		t.Fatal(err)
	}
	if mig["type"] != "migration" || mig["from"] != 0.0 || mig["to"] != 1.0 || mig["count"] != 2.0 {
		t.Fatalf("unexpected migration record: %v", mig)
	}
	var run map[string]any
	if err := json.Unmarshal([]byte(lines[4]), &run); err != nil {
		t.Fatal(err)
	}
	if run["type"] != "run" || run["seed"] != 42.0 || run["variant"] != "base" {
		t.Fatalf("unexpected run record: %v", run)
	}
}

func TestTraceByteIdenticalWithInjectedClock(t *testing.T) {
	var a, b strings.Builder
	if err := writeSampleTrace(&a, countingClock(5, 7)); err != nil {
		t.Fatal(err)
	}
	if err := writeSampleTrace(&b, countingClock(5, 7)); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("traces differ across repeats with identical clock:\n%s\nvs\n%s", a.String(), b.String())
	}
	var c strings.Builder
	if err := writeSampleTrace(&c, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.SplitN(c.String(), "\n", 2)[0], `"ts":0`) {
		t.Fatal("nil clock must stamp ts 0")
	}
}

func TestTraceValidates(t *testing.T) {
	var sb strings.Builder
	if err := writeSampleTrace(&sb, countingClock(0, 1)); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	if sum != (TraceSummary{Generations: 3, Migrations: 1, Runs: 1}) {
		t.Fatalf("summary %+v", sum)
	}
}

func TestValidateTraceRejections(t *testing.T) {
	gen := `{"type":"generation","ts":1,"label":"x","gen":1,"pop":4,"full_evals":1,"delta_evals":3,"machines_simulated":0,"machines_inherited":0,"dirty_mean":0,"dirty_max":0,"machines":6,"front_size":1,"hv":1,"eps":0,"spread":0,"front":[[1,2]]}`
	cases := []struct {
		name, in, wantErr string
	}{
		{"empty trace", "", "no records"},
		{"invalid json", "not json\n", "invalid JSON"},
		{"unknown type", `{"type":"bogus","ts":1}` + "\n", "unknown record type"},
		{"missing type", `{"ts":1}` + "\n", "missing record type"},
		{"missing ts", `{"type":"migration","gen":1,"from":0,"to":1,"count":1}` + "\n", "missing ts"},
		{"generation missing fields", `{"type":"generation","ts":1,"gen":1}` + "\n", "missing required fields"},
		{"front size mismatch", strings.Replace(gen, `"front_size":1`, `"front_size":3`, 1) + "\n", "does not match"},
		{"non-increasing gen", gen + "\n" + gen + "\n", "not after"},
		{"dirty max over machines", strings.Replace(gen, `"dirty_max":0`, `"dirty_max":9`, 1) + "\n", "exceeds machine count"},
		{"negative hv", strings.Replace(gen, `"hv":1`, `"hv":-2`, 1) + "\n", "negative hypervolume"},
		{"bad front point", strings.Replace(gen, `"front":[[1,2]]`, `"front":[[1,2,3]]`, 1) + "\n", "coordinates"},
		{"migration missing fields", `{"type":"migration","ts":1,"from":0}` + "\n", "missing gen/from/to/count"},
		{"run missing fields", `{"type":"run","ts":1,"dataset":"x"}` + "\n", "missing required fields"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ValidateTrace(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("validator accepted invalid trace")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestTraceSchemaVersion pins the versioning contract: every emitted
// record carries "v" equal to TraceSchemaVersion, legacy v1 records
// (no "v" field) still validate, and unknown versions are rejected —
// as are stamped records missing the fields their version introduced.
func TestTraceSchemaVersion(t *testing.T) {
	if TraceSchemaVersion != 5 {
		t.Fatalf("TraceSchemaVersion = %d; update this test alongside a schema bump", TraceSchemaVersion)
	}
	var sb strings.Builder
	if err := writeSampleTrace(&sb, nil); err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		var rec struct {
			V *int `json:"v"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.V == nil || *rec.V != TraceSchemaVersion {
			t.Fatalf("line %d: record not stamped with v%d: %s", i+1, TraceSchemaVersion, line)
		}
	}

	legacy := legacyGenerations()
	for i, rec := range legacy {
		if _, err := ValidateTrace(strings.NewReader(rec)); err != nil {
			t.Fatalf("well-formed v%d record rejected: %v", i+1, err)
		}
	}
	v1, v2, v3, v4 := legacy[0], legacy[1], legacy[2], legacy[3]
	// v5: v4 without the retired fields.
	v5 := `{"type":"generation","v":5,"ts":1,"label":"x","gen":1,"pop":4,"full_evals":1,"delta_evals":3,"machines_simulated":0,"machines_inherited":0,"arena_occupancy":0.5,"phase_ns":[1,2,3,4,5,6,7,8],"machines":6,"front_size":1,"hv":1,"eps":0,"spread":0,"front":[[1,2]]}` + "\n"
	if _, err := ValidateTrace(strings.NewReader(v5)); err != nil {
		t.Fatalf("well-formed v5 record rejected: %v", err)
	}
	cases := []struct {
		name, in, wantErr string
	}{
		{"future version", strings.Replace(v1, `"ts":1`, `"v":99,"ts":1`, 1), "unsupported schema version"},
		{"v2 missing cache fields", strings.Replace(v1, `"ts":1`, `"v":2,"ts":1`, 1), "missing cache_hits"},
		{"negative cache counter", strings.Replace(v2, `"cache_hits":2`, `"cache_hits":-1`, 1), "negative cache counters"},
		{"hit rate above one", strings.Replace(v2, `"cache_hit_rate":0.5`, `"cache_hit_rate":1.5`, 1), "outside [0,1]"},
		{"occupancy above one", strings.Replace(v2, `"arena_occupancy":0.5`, `"arena_occupancy":2`, 1), "outside [0,1]"},
		{"v3 missing machine-cache fields", strings.Replace(v2, `"v":2`, `"v":3`, 1), "missing machine_cache_hits"},
		{"negative machine-cache counter", strings.Replace(v3, `"machine_cache_misses":6`, `"machine_cache_misses":-1`, 1), "negative machine-cache counters"},
		{"machine hit rate above one", strings.Replace(v3, `"machine_cache_hit_rate":0.4`, `"machine_cache_hit_rate":1.4`, 1), "outside [0,1]"},
		{"negative typed counter", strings.Replace(v3, `"typed_runs":8`, `"typed_runs":-8`, 1), "negative typed-kernel counters"},
		{"typed runs exceed tasks", strings.Replace(v3, `"typed_runs":8`, `"typed_runs":21`, 1), "exceeds typed_tasks"},
		{"v4 missing phase_ns", strings.Replace(v3, `"v":3`, `"v":4`, 1), "missing phase_ns"},
		{"v4 short phase_ns", strings.Replace(v4, `"phase_ns":[1,2,3,4,5,6,7,8]`, `"phase_ns":[1,2]`, 1), "phase_ns has 2 entries"},
		{"v4 negative phase_ns", strings.Replace(v4, `"phase_ns":[1,2,3,4,5,6,7,8]`, `"phase_ns":[1,2,-3,4,5,6,7,8]`, 1), "negative phase_ns"},
		{"v4 missing dirty_max", strings.Replace(v4, `"dirty_max":0,`, ``, 1), "missing required fields"},
		{"v5 missing arena_occupancy", strings.Replace(v5, `"arena_occupancy":0.5,`, ``, 1), "missing arena_occupancy"},
		{"v5 missing phase_ns", strings.Replace(v5, `"phase_ns":[1,2,3,4,5,6,7,8],`, ``, 1), "missing phase_ns"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ValidateTrace(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("validator accepted invalid trace")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// retiredFields are the generation-record fields schema v5 dropped.
var retiredFields = []string{
	"cache_hits", "cache_misses", "cache_hit_rate",
	"machine_cache_hits", "machine_cache_misses", "machine_cache_hit_rate",
	"typed_tasks", "typed_runs", "dirty_mean", "dirty_max",
}

// legacyGenerations returns one well-formed generation record for each
// schema version before v5, v1 (no "v" field) through v4, each built
// from the one before.
func legacyGenerations() [4]string {
	v1 := `{"type":"generation","ts":1,"label":"x","gen":1,"pop":4,"full_evals":1,"delta_evals":3,"machines_simulated":0,"machines_inherited":0,"dirty_mean":0,"dirty_max":0,"machines":6,"front_size":1,"hv":1,"eps":0,"spread":0,"front":[[1,2]]}` + "\n"
	v2 := strings.Replace(v1, `"ts":1`, `"v":2,"ts":1,"cache_hits":2,"cache_misses":2,"cache_hit_rate":0.5,"arena_occupancy":0.5`, 1)
	v3 := strings.Replace(v2, `"v":2`,
		`"v":3,"machine_cache_hits":4,"machine_cache_misses":6,"machine_cache_hit_rate":0.4,"typed_tasks":20,"typed_runs":8`, 1)
	v4 := strings.Replace(v3, `"v":3`,
		`"v":4,"phase_ns":[1,2,3,4,5,6,7,8]`, 1)
	return [4]string{v1, v2, v3, v4}
}

// TestTraceErrorStructure pins the structured validation-error
// contract: the first violation surfaces as a *TraceError carrying the
// 1-based line number and the record type of the offending record.
func TestTraceErrorStructure(t *testing.T) {
	in := `{"type":"migration","ts":1,"gen":1,"from":0,"to":1,"count":2}` + "\n" +
		`{"type":"migration","ts":2,"from":0}` + "\n"
	_, err := ValidateTrace(strings.NewReader(in))
	var te *TraceError
	if !errors.As(err, &te) {
		t.Fatalf("error %T is not a *TraceError: %v", err, err)
	}
	if te.Line != 2 || te.RecordType != "migration" {
		t.Fatalf("TraceError{Line:%d, RecordType:%q}, want line 2, migration", te.Line, te.RecordType)
	}
	if !strings.Contains(te.Error(), "line 2: migration record:") {
		t.Fatalf("rendered error %q missing location prefix", te.Error())
	}
	_, err = ValidateTrace(strings.NewReader("not json\n"))
	if !errors.As(err, &te) || te.Line != 1 || te.RecordType != "" {
		t.Fatalf("unparseable line: got %v, want *TraceError at line 1 with no record type", err)
	}
}

// errWriter fails after n successful writes.
type errWriter struct{ n int }

func (e *errWriter) Write(p []byte) (int, error) {
	if e.n <= 0 {
		return 0, errors.New("disk full")
	}
	e.n--
	return len(p), nil
}

func TestTraceWriterStickyError(t *testing.T) {
	tw := NewTraceWriter(&errWriter{n: 1}, nil)
	tw.ObserveGeneration(sampleGeneration(1))
	if tw.Err() != nil {
		t.Fatal("first write should succeed")
	}
	tw.ObserveGeneration(sampleGeneration(2))
	if tw.Err() == nil {
		t.Fatal("second write must surface the error")
	}
	tw.ObserveGeneration(sampleGeneration(3)) // dropped, no panic
	if err := tw.Flush(); err == nil {
		t.Fatal("Flush must report the sticky error")
	}
}

func TestTraceWriterGenerationPathAllocationFree(t *testing.T) {
	tw := NewTraceWriter(io.Discard, countingClock(0, 1))
	g := sampleGeneration(1)
	tw.ObserveGeneration(g)
	if n := testing.AllocsPerRun(200, func() { tw.ObserveGeneration(g) }); n != 0 {
		t.Fatalf("trace generation path allocates %.1f per run, want 0", n)
	}
}
