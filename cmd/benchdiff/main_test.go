package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const plainOutput = `goos: linux
goarch: amd64
pkg: tradeoff
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkStepPop100-8      	     100	   1895817 ns/op	   23653 B/op	      23 allocs/op
BenchmarkStepPop200-8      	      50	   3722078 ns/op	   46814 B/op	      43 allocs/op
BenchmarkParetoFront-8     	   20000	     61234 ns/op	   12345 B/op	      51 allocs/op
BenchmarkNoMem-8           	    1000	    500000 ns/op
PASS
ok  	tradeoff	2.5s
`

func TestParsePlain(t *testing.T) {
	res, err := parse(strings.NewReader(plainOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(res), res)
	}
	first := res[0]
	if first.Name != "BenchmarkStepPop100" {
		t.Fatalf("name %q, want GOMAXPROCS suffix stripped", first.Name)
	}
	if first.NsPerOp != 1895817 || first.AllocsPerOp != 23 || !first.HasAllocs {
		t.Fatalf("unexpected measurement: %+v", first)
	}
	if res[3].HasAllocs {
		t.Fatalf("no-benchmem line must have HasAllocs=false: %+v", res[3])
	}
	for _, want := range []string{"Intel(R) Xeon(R) Processor @ 2.10GHz", "linux/amd64", "GOMAXPROCS=8", "go1."} {
		if !strings.Contains(first.Host, want) {
			t.Fatalf("host stamp %q lacks %q", first.Host, want)
		}
	}
}

func TestParseTest2JSON(t *testing.T) {
	in := `{"Action":"start","Package":"tradeoff"}
{"Action":"output","Package":"tradeoff","Output":"BenchmarkStepPop100-8   100   1000 ns/op   64 B/op   2 allocs/op\n"}
{"Action":"output","Package":"tradeoff","Output":"PASS\n"}
{"Action":"pass","Package":"tradeoff"}
`
	res, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Name != "BenchmarkStepPop100" || res[0].NsPerOp != 1000 || res[0].AllocsPerOp != 2 {
		t.Fatalf("unexpected results: %+v", res)
	}
}

func TestParseCanonicalRoundTrip(t *testing.T) {
	res, err := parse(strings.NewReader(plainOutput))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := record(path, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parse(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(res) {
		t.Fatalf("round trip lost results: %d vs %d", len(back), len(res))
	}
	for i := range res {
		if back[i] != res[i] {
			t.Fatalf("result %d: %+v vs %+v", i, back[i], res[i])
		}
	}
}

func TestReduceDuplicates(t *testing.T) {
	in := "BenchmarkX-8 10 200 ns/op\nBenchmarkX-8 10 100 ns/op\nBenchmarkX-8 10 900 ns/op\n"
	raw, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 3 {
		t.Fatalf("parse collapsed duplicates: %+v", raw)
	}
	mean := reduce(raw, statMean)
	if len(mean) != 1 || mean[0].NsPerOp != 400 {
		t.Fatalf("mean: unexpected results: %+v", mean)
	}
	if mean[0].Iterations != 30 {
		t.Fatalf("iterations not summed: %+v", mean)
	}
	med := reduce(raw, statMedian)
	if len(med) != 1 || med[0].NsPerOp != 200 {
		t.Fatalf("median: unexpected results: %+v", med)
	}
}

func TestStatMedian(t *testing.T) {
	if got := statMedian([]float64{9, 1, 5}); got != 5 {
		t.Fatalf("odd median %v, want 5", got)
	}
	if got := statMedian([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median %v, want 2.5", got)
	}
}

// TestRunStatFlag pins -stat end to end: an outlier run regresses the
// mean beyond the threshold but leaves the median untouched, and an
// unknown statistic is a usage error.
func TestRunStatFlag(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldPath := write("old.txt", "BenchmarkA-8 10 1000 ns/op\n")
	newPath := write("new.txt",
		"BenchmarkA-8 10 1000 ns/op\nBenchmarkA-8 10 1010 ns/op\nBenchmarkA-8 10 9000 ns/op\n")

	var out, errOut strings.Builder
	if code := run([]string{oldPath, newPath}, &out, &errOut); code != 1 {
		t.Fatalf("mean compare exit %d, want 1 (outlier drags the mean); stderr: %s", code, errOut.String())
	}
	out.Reset()
	if code := run([]string{"-stat", "median", oldPath, newPath}, &out, &errOut); code != 0 {
		t.Fatalf("median compare exit %d, want 0; stderr: %s", code, errOut.String())
	}
	errOut.Reset()
	if code := run([]string{"-stat", "p99", oldPath, newPath}, &out, &errOut); code != 2 {
		t.Fatalf("unknown stat exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "p99") {
		t.Fatalf("usage error does not name the bad statistic: %s", errOut.String())
	}
}

func TestCompareThreshold(t *testing.T) {
	oldRes := []Result{
		{Name: "A", NsPerOp: 1000, AllocsPerOp: 100, HasAllocs: true},
		{Name: "B", NsPerOp: 1000, AllocsPerOp: 0, HasAllocs: true},
		{Name: "OnlyOld", NsPerOp: 5},
	}
	newRes := []Result{
		{Name: "A", NsPerOp: 1099, AllocsPerOp: 110, HasAllocs: true}, // within 10%
		{Name: "B", NsPerOp: 900, AllocsPerOp: 0, HasAllocs: true},
		{Name: "OnlyNew", NsPerOp: 5},
	}
	if regs := compare(oldRes, newRes, 0.10); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
	// Beyond 10% on ns/op.
	newRes[0].NsPerOp = 1101
	regs := compare(oldRes, newRes, 0.10)
	if len(regs) != 1 || regs[0].Metric != "ns/op" {
		t.Fatalf("want one ns/op regression, got %v", regs)
	}
	// Beyond 10% on allocs/op too.
	newRes[0].AllocsPerOp = 111
	if regs := compare(oldRes, newRes, 0.10); len(regs) != 2 {
		t.Fatalf("want two regressions, got %v", regs)
	}
	// Zero-alloc benchmarks must stay zero-alloc regardless of threshold.
	newRes[1].AllocsPerOp = 1
	regs = compare(oldRes, newRes, 0.10)
	found := false
	for _, r := range regs {
		if r.Name == "B" && r.Metric == "allocs/op" {
			found = true
		}
	}
	if !found {
		t.Fatalf("0 -> 1 allocs/op not flagged: %v", regs)
	}
}

func TestRunCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.txt")
	newPath := filepath.Join(dir, "new.txt")
	if err := os.WriteFile(oldPath, []byte("BenchmarkA-8 10 1000 ns/op 8 B/op 1 allocs/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte("BenchmarkA-8 10 1050 ns/op 8 B/op 1 allocs/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{oldPath, newPath}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d for 5%% drift under 10%% threshold; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "ok: no regression") {
		t.Fatalf("missing ok line in output:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-threshold", "0.01", oldPath, newPath}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d for 5%% drift over 1%% threshold", code)
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("missing FAIL line in output:\n%s", out.String())
	}
	if code := run([]string{oldPath}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d for bad usage, want 2", code)
	}
}

// TestRunNoBaseline checks that a benchmark missing from the baseline
// is printed as new (no baseline), not dropped, and that it changes no
// exit code: the run still passes, or fails on the gated benchmarks
// alone.
func TestRunNoBaseline(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.txt", "BenchmarkA-8 10 1000 ns/op\n")
	fresh := write("fresh.txt", "BenchmarkA-8 10 1000 ns/op\nBenchmarkB-8 10 99999 ns/op\n")
	slow := write("slow.txt", "BenchmarkA-8 10 2000 ns/op\nBenchmarkB-8 10 99999 ns/op\n")
	for _, tc := range []struct {
		newPath  string
		wantCode int
	}{{fresh, 0}, {slow, 1}} {
		var out, errOut strings.Builder
		if code := run([]string{base, tc.newPath}, &out, &errOut); code != tc.wantCode {
			t.Fatalf("%s: exit %d, want %d; stderr: %s", tc.newPath, code, tc.wantCode, errOut.String())
		}
		var row string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "BenchmarkB ") {
				row = line
			}
		}
		if !strings.Contains(row, "new (no baseline)") {
			t.Fatalf("%s: BenchmarkB row %q does not say new (no baseline):\n%s", tc.newPath, row, out.String())
		}
		if !strings.Contains(out.String(), "1 benchmark(s) new (no baseline)") {
			t.Fatalf("%s: summary missing the no-baseline count:\n%s", tc.newPath, out.String())
		}
	}
}

func TestRunRecord(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	outJSON := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(in, []byte(plainOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{"-record", outJSON, in}, &out, &errOut); code != 0 {
		t.Fatalf("record exit %d; stderr: %s", code, errOut.String())
	}
	data, err := os.ReadFile(outJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"benchmarks\"") {
		t.Fatalf("canonical file missing benchmarks key:\n%s", data)
	}
}

// TestRunErrorExitCodes pins the distinct exit statuses for the three
// input-failure modes: missing file (3), malformed bench lines (4), and
// empty input (5), each with a message naming the cause.
func TestRunErrorExitCodes(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.txt")
	if err := os.WriteFile(good, []byte("BenchmarkA-8 10 1000 ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	malformed := write("malformed.txt", "BenchmarkA-8 ten 1000 ns/op\nBenchmarkB\n")
	empty := write("empty.txt", "")
	noBench := write("nobench.txt", "PASS\nok  \ttradeoff\t0.1s\n")

	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantMsg  string
	}{
		{"missing baseline", []string{filepath.Join(dir, "nope.txt"), good}, 3, "no such file"},
		{"missing candidate", []string{good, filepath.Join(dir, "nope.txt")}, 3, "no such file"},
		{"malformed baseline", []string{malformed, good}, 4, "none parsed"},
		{"empty baseline", []string{empty, good}, 5, "empty input"},
		{"empty candidate", []string{good, empty}, 5, "empty input"},
		{"no bench content", []string{noBench, good}, 5, "empty input"},
		{"record empty", []string{"-record", filepath.Join(dir, "out.json"), empty}, 5, "empty input"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut strings.Builder
			code := run(tc.args, &out, &errOut)
			if code != tc.wantCode {
				t.Fatalf("exit %d, want %d; stderr: %s", code, tc.wantCode, errOut.String())
			}
			if !strings.Contains(errOut.String(), tc.wantMsg) {
				t.Fatalf("stderr %q does not mention %q", errOut.String(), tc.wantMsg)
			}
		})
	}
}

// TestRunBenchFilter pins the -bench regexp: comparison sees only the
// matching benchmarks (a regression outside the filter cannot fail the
// run), recording writes only the matching subset, an unmatched filter
// is an empty-input error (exit 5), and a bad regexp is a usage error.
func TestRunBenchFilter(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldPath := write("old.txt",
		"BenchmarkTypedStep-8 10 1000 ns/op 8 B/op 1 allocs/op\nBenchmarkOther-8 10 1000 ns/op 8 B/op 1 allocs/op\n")
	newPath := write("new.txt",
		"BenchmarkTypedStep-8 10 1010 ns/op 8 B/op 1 allocs/op\nBenchmarkOther-8 10 9000 ns/op 8 B/op 1 allocs/op\n")

	var out, errOut strings.Builder
	if code := run([]string{newPath, newPath}, &out, &errOut); code != 0 {
		t.Fatalf("sanity self-compare exit %d; stderr: %s", code, errOut.String())
	}
	out.Reset()
	if code := run([]string{oldPath, newPath}, &out, &errOut); code != 1 {
		t.Fatal("unfiltered compare must fail on BenchmarkOther's 9x regression")
	}
	out.Reset()
	if code := run([]string{"-bench", "Typed", oldPath, newPath}, &out, &errOut); code != 0 {
		t.Fatalf("filtered compare exit %d; stderr: %s", code, errOut.String())
	}
	if strings.Contains(out.String(), "BenchmarkOther") {
		t.Fatalf("filtered table still lists BenchmarkOther:\n%s", out.String())
	}

	outJSON := filepath.Join(dir, "typed.json")
	out.Reset()
	if code := run([]string{"-bench", "Typed", "-record", outJSON, oldPath}, &out, &errOut); code != 0 {
		t.Fatalf("filtered record exit %d; stderr: %s", code, errOut.String())
	}
	res, err := parseFile(outJSON, statMean)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Name != "BenchmarkTypedStep" {
		t.Fatalf("filtered record kept %+v, want only BenchmarkTypedStep", res)
	}

	errOut.Reset()
	if code := run([]string{"-bench", "NoSuchBench", oldPath, newPath}, &out, &errOut); code != 5 {
		t.Fatalf("unmatched filter exit %d, want 5; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "NoSuchBench") {
		t.Fatalf("unmatched-filter error does not name the pattern: %s", errOut.String())
	}
	if code := run([]string{"-bench", "(", oldPath, newPath}, &out, &errOut); code != 2 {
		t.Fatal("invalid regexp must be a usage error (exit 2)")
	}
}

// TestRunJSON pins the -json compare mode: same exit-code contract as
// the table mode, with one parseable JSON document on stdout.
func TestRunJSON(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.txt", "BenchmarkA-8 10 1000 ns/op 8 B/op 1 allocs/op\nBenchmarkOnlyOld-8 10 5 ns/op\n")
	drift := write("drift.txt", "BenchmarkA-8 10 1050 ns/op 8 B/op 1 allocs/op\nBenchmarkOnlyNew-8 10 5 ns/op\n")
	regress := write("regress.txt", "BenchmarkA-8 10 2000 ns/op 8 B/op 9 allocs/op\n")
	malformed := write("malformed.txt", "BenchmarkA-8 ten 1000 ns/op\n")
	empty := write("empty.txt", "")

	cases := []struct {
		name     string
		args     []string
		wantCode int
	}{
		{"ok", []string{"-json", good, drift}, 0},
		{"regression", []string{"-json", good, regress}, 1},
		{"tight threshold", []string{"-json", "-threshold", "0.01", good, drift}, 1},
		{"usage", []string{"-json", good}, 2},
		{"missing file", []string{"-json", filepath.Join(dir, "nope.txt"), good}, 3},
		{"malformed", []string{"-json", malformed, good}, 4},
		{"empty", []string{"-json", empty, good}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut strings.Builder
			code := run(tc.args, &out, &errOut)
			if code != tc.wantCode {
				t.Fatalf("exit %d, want %d; stderr: %s", code, tc.wantCode, errOut.String())
			}
			if tc.wantCode > 1 {
				return // no document expected on usage/input errors
			}
			var doc DiffDoc
			if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
				t.Fatalf("stdout is not JSON: %v\n%s", err, out.String())
			}
			if doc.OK != (tc.wantCode == 0) {
				t.Fatalf("ok=%v with exit %d", doc.OK, code)
			}
			if doc.OK && len(doc.Regressions) != 0 {
				t.Fatalf("ok document lists regressions: %+v", doc.Regressions)
			}
			if !doc.OK && len(doc.Regressions) == 0 {
				t.Fatalf("failing document lists no regressions")
			}
		})
	}
}

// TestBuildDiff checks the per-benchmark rows: union of both sides,
// sorted, with deltas only where both sides measured.
func TestBuildDiff(t *testing.T) {
	oldRes := []Result{
		{Name: "A", NsPerOp: 1000, AllocsPerOp: 10, HasAllocs: true},
		{Name: "OnlyOld", NsPerOp: 5},
	}
	newRes := []Result{
		{Name: "A", NsPerOp: 1100, AllocsPerOp: 10, HasAllocs: true},
		{Name: "OnlyNew", NsPerOp: 7},
	}
	doc := buildDiff(oldRes, newRes, nil, 0.10)
	if !doc.OK || doc.Threshold != 0.10 {
		t.Fatalf("header wrong: %+v", doc)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("want union of 3 benchmarks, got %+v", doc.Benchmarks)
	}
	if doc.Benchmarks[0].Name != "A" || doc.Benchmarks[1].Name != "OnlyNew" || doc.Benchmarks[2].Name != "OnlyOld" {
		t.Fatalf("not sorted by name: %+v", doc.Benchmarks)
	}
	a := doc.Benchmarks[0]
	if a.DeltaNs == nil || *a.DeltaNs < 0.099 || *a.DeltaNs > 0.101 {
		t.Fatalf("DeltaNs wrong: %+v", a)
	}
	if a.DeltaAllocs == nil || *a.DeltaAllocs != 0 {
		t.Fatalf("DeltaAllocs wrong: %+v", a)
	}
	if doc.Benchmarks[1].OldNsPerOp != nil || doc.Benchmarks[1].DeltaNs != nil {
		t.Fatalf("OnlyNew must have no old side: %+v", doc.Benchmarks[1])
	}
	if doc.Benchmarks[2].NewNsPerOp != nil {
		t.Fatalf("OnlyOld must have no new side: %+v", doc.Benchmarks[2])
	}
}

// TestRunCrossHostRefused: a baseline and a candidate stamped with
// different hosts do not compare (exit 6, even in -json mode); the same
// host, or a side without a stamp, compares as usual.
func TestRunCrossHostRefused(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	stamped := func(cpu, ns string) string {
		return "goos: linux\ngoarch: amd64\ncpu: " + cpu + "\nBenchmarkA-8 10 " + ns + " ns/op\n"
	}
	hostA := write("a.txt", stamped("CPU A", "1000"))
	hostAFast := write("a_fast.txt", stamped("CPU A", "900"))
	hostB := write("b.txt", stamped("CPU B", "900"))
	bare := write("bare.txt", "BenchmarkA-8 10 900 ns/op\n")
	for _, tc := range []struct {
		args     []string
		wantCode int
	}{
		{[]string{hostA, hostB}, 6},
		{[]string{"-json", hostA, hostB}, 6},
		{[]string{hostA, hostAFast}, 0},
		{[]string{hostA, bare}, 0},
		{[]string{bare, hostB}, 0},
	} {
		var out, errOut strings.Builder
		if code := run(tc.args, &out, &errOut); code != tc.wantCode {
			t.Fatalf("%v: exit %d, want %d; stderr: %s", tc.args, code, tc.wantCode, errOut.String())
		}
		if tc.wantCode == 6 && !strings.Contains(errOut.String(), `"CPU A`) {
			t.Fatalf("%v: stderr %q does not name the hosts", tc.args, errOut.String())
		}
	}
}
