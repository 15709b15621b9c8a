package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"tradeoff/internal/core"
)

// TestMain lets the test binary stand in for the bench binary: the
// runner re-executes it as a rep child and the distributed workloads
// re-execute it as island workers.
func TestMain(m *testing.M) {
	if childRole() {
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Tiny configurations of each workload kind, small enough that a rep
// takes a fraction of a second.
var (
	tinyEngine  = workload{Name: "tiny-engine", Dataset: 1, Pop: 20, Gens: 30, Chunk: 10}
	tinyIslands = workload{Name: "tiny-islands", Dataset: 1, Pop: 10, Islands: 4, Interval: 5, Gens: 40, Chunk: 10}
	tinyDist    = workload{Name: "tiny-dist", Dataset: 1, Pop: 10, Islands: 4, Interval: 5, Workers: 2, Gens: 40, Chunk: 10}
	tinyScale   = workload{Name: "tiny-scale", Tasks: 600, Pop: 20, Archive: 8, Gens: 10, Chunk: 5}
)

func loadTestSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpec holds BENCHMARK.json to the benchmark contract and to the
// code: names, caps, units, bounds and the workload list.
func TestSpec(t *testing.T) {
	sp := loadTestSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code runs %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		use(w.Name)
		if i < len(workloads) && workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the code", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	var setup metricDef
	maxBound := 0.0
	for _, d := range append(append([]metricDef(nil), sp.EndToEnd...), sp.PerLayer...) {
		use(d.Name)
		if !unitRE.MatchString(d.Unit) || d.Unit != unitOf(d.Name) {
			t.Errorf("metric %s: unit %q, the code reports %q", d.Name, d.Unit, unitOf(d.Name))
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range sp.EndToEnd {
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = max(maxBound, d.Bound)
		if d.Name == "setup_s" {
			setup = d
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" || setup.Bound != maxBound {
		t.Errorf("setup_s is %+v, want unit s, lower, and the largest bound %v", setup, maxBound)
	}
}

// TestTinyRunsEmitEveryMetric measures a tiny configuration of each
// workload kind through the real parent/child path, traced, and
// requires every metric in BENCHMARK.json in the summary line.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	sp := loadTestSpec(t)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{exe: exe, seed: 3, trace: true, traceDir: t.TempDir(), ref: reference{}, enforce: true}
	for _, w := range []workload{tinyEngine, tinyIslands, tinyDist, tinyScale} {
		wr := r.measure(w)
		if !wr.Correct || wr.Failed > 0 {
			t.Fatalf("%s: correct=%t failed=%d problems=%v", w.Name, wr.Correct, wr.Failed, wr.Problems)
		}
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			if !printReport(&out, sp, &results{Host: hostStamp(), Workloads: []*workloadResult{wr}}, traced) {
				t.Errorf("%s traced=%t: report failed:\n%s", w.Name, traced, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var summary struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
				t.Fatalf("%s: last line is not the summary: %v", w.Name, err)
			}
			defs := sp.EndToEnd
			if traced {
				defs = sp.PerLayer
			}
			if len(summary.Metrics) != len(defs) || summary.Attempted < 1 {
				t.Errorf("%s traced=%t: %d metrics over %d reps, want %d", w.Name, traced, len(summary.Metrics), summary.Attempted, len(defs))
			}
			for _, d := range defs {
				if m, ok := summary.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%t: metric %s missing or in the wrong unit (%+v)", w.Name, traced, d.Name, m)
				}
			}
		}
	}
}

// oneShot runs w through core.Framework.Optimize, the CLI's path, and
// returns its front digest.
func oneShot(t *testing.T, w workload, seed uint64) string {
	t.Helper()
	ds, err := w.dataset()
	if err != nil {
		t.Fatal(err)
	}
	fw, err := core.New(ds.System, ds.Trace)
	if err != nil {
		t.Fatal(err)
	}
	opts := w.options(seed)
	opts.AsyncIslands = false
	res, err := fw.Optimize(opts)
	if err != nil {
		t.Fatal(err)
	}
	return frontDigest(res)
}

func repDigest(t *testing.T, w workload, seed uint64, traced bool) string {
	t.Helper()
	res, _, err := runRep(w, seed, traced)
	if err != nil {
		t.Fatal(err)
	}
	if res.Problem != "" {
		t.Fatalf("%s: %s", w.Name, res.Problem)
	}
	return res.Digest
}

// TestDrivenFrontMatchesOptimize: the bench drives nsga2.New, Step and
// FinishFront itself; the front must be Framework.Optimize's, traced
// or not.
func TestDrivenFrontMatchesOptimize(t *testing.T) {
	for _, w := range []workload{tinyEngine, tinyScale} {
		want := oneShot(t, w, 5)
		for _, traced := range []bool{false, true} {
			if got := repDigest(t, w, 5, traced); got != want {
				t.Errorf("%s traced=%t: driven digest %s, Optimize %s", w.Name, traced, got, want)
			}
		}
	}
}

// TestChunkedRunsMatchOneShot: stepping the ring chunk by chunk in
// process, or over two worker processes, gives the front of one
// uninterrupted synchronous island run.
func TestChunkedRunsMatchOneShot(t *testing.T) {
	want := oneShot(t, tinyIslands, 7)
	if got := repDigest(t, tinyIslands, 7, false); got != want {
		t.Errorf("chunked sync digest %s, one-shot %s", got, want)
	}
	if got := repDigest(t, tinyDist, 7, true); got != want {
		t.Errorf("chunked 2-worker digest %s, one-shot %s", got, want)
	}
}

// TestCorruptDigestIsFailure: a front that does not reproduce the
// recorded digest, or its in-process reference, counts as a failed,
// incorrect rep; the benchmark reports it instead of stopping.
func TestCorruptDigestIsFailure(t *testing.T) {
	good := func() outcome {
		return outcome{res: &repResult{Digest: "00000000000000aa", Metrics: map[string]float64{"wall_s": 1}}}
	}
	r := &runner{seed: 1, enforce: true, ref: reference{}}
	entry := r.ref["w"]
	entry.Seeds = map[string]recorded{"1": {Digest: "00000000000000bb"}}
	r.ref["w"] = entry
	wr := r.judge(workload{Name: "w"}, nil, []outcome{good(), good()})
	if wr.Correct || wr.Failed != 2 || wr.Attempted != 2 {
		t.Errorf("recorded-digest mismatch: correct=%t failed=%d attempted=%d", wr.Correct, wr.Failed, wr.Attempted)
	}

	r.ref = reference{}
	base := outcome{res: &repResult{Digest: "00000000000000cc", Metrics: map[string]float64{}}}
	wr = r.judge(workload{Name: "w", Workers: 2}, &base, []outcome{good(), {err: "rep 2 timed out"}})
	if wr.Correct || wr.Failed != 2 || wr.Attempted != 3 || len(wr.Problems) != 2 {
		t.Errorf("reference mismatch: correct=%t failed=%d attempted=%d problems=%v", wr.Correct, wr.Failed, wr.Attempted, wr.Problems)
	}
}

// TestQuartiles matches Python's statistics.quantiles(xs, n=4), the
// spread the benchmark is judged by.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4}, 4, 4, 4},
	} {
		if q1, med, q3 := quartiles(c.xs); q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// TestCompareLabels covers the -compare verdicts, including the time
// floor and the unresolved case.
func TestCompareLabels(t *testing.T) {
	st := func(lo, med, hi float64) stat { return stat{Q1: lo, Median: med, Q3: hi, Min: lo, Max: hi} }
	wall := metricDef{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}
	hv := metricDef{Name: "hv_ratio", Unit: "ratio", Better: "higher", Bound: 0.05}
	for _, c := range []struct {
		def       metricDef
		base, cur stat
		want      string
	}{
		{wall, st(9.9, 10, 10.1), st(11.9, 12, 12.1), "worse"},
		{wall, st(9.9, 10, 10.1), st(7.9, 8, 8.1), "improved"},
		{wall, st(9.9, 10, 10.1), st(10.4, 10.5, 10.6), "unchanged"},
		{wall, st(0.09, 0.1, 0.11), st(0.12, 0.13, 0.14), "unchanged"}, // within the 0.05 s floor
		{wall, st(8, 10, 12), st(9, 11, 13), "unresolved"},
		{wall, st(8, 10, 12), st(13, 14, 15), "worse"},
		{hv, st(3.79, 3.8, 3.81), st(3.4, 3.41, 3.42), "worse"},
		{hv, st(3.79, 3.8, 3.81), st(3.8, 3.81, 3.82), "unchanged"},
	} {
		if got := label(c.def, c.base, c.cur); got != c.want {
			t.Errorf("%s %+v -> %+v: %s, want %s", c.def.Name, c.base, c.cur, got, c.want)
		}
	}
}
