// Command benchdiff compares two `go test -bench` outputs and fails on
// performance regressions, guarding the engine's steady-state cost (see
// DESIGN.md §8). It understands three input formats, auto-detected per
// file: plain `go test -bench` text, `go test -json` (test2json) streams,
// and its own canonical JSON (written by -record).
//
// Usage:
//
//	benchdiff old new            compare two bench outputs ("-" = stdin)
//	benchdiff -record out.json f parse f and write canonical JSON
//	benchdiff -threshold 0.05 …  tighten the regression threshold
//	benchdiff -json old new      emit the comparison as JSON
//	benchdiff -bench Typed o n   restrict to names matching a regexp
//	benchdiff -stat median o n   aggregate -count=N runs by median
//
// A benchmark regresses when its ns/op or allocs/op in `new` exceeds the
// value in `old` by more than the threshold (default 10%). Benchmarks
// present in only one input are reported but never fail the run.
// Repeated runs of one benchmark (`go test -count=N`) are collapsed
// with -stat: mean (the default) or median, the latter shrugging off a
// single noisy outlier run.
//
// A result parsed from plain `go test -bench` text carries a host stamp:
// the header's CPU and goos/goarch, the run's GOMAXPROCS (the name's
// suffix) and the Go version benchdiff runs on, which -record keeps.
// A compare refuses (exit 6) when a benchmark both inputs hold carries
// a stamp in each and the stamps differ: timings from two hosts do not
// compare. A result without a stamp compares as usual.
//
// -bench restricts both comparison and recording to benchmarks whose
// (GOMAXPROCS-stripped) name matches the regexp, so one canonical
// baseline file can back several Makefile slices: each slice re-runs
// its own `go test -bench` subset and diffs it against the shared
// baseline without the absent benchmarks muddying the table. A filter
// that matches nothing in an input is an empty-input error (exit 5).
//
// Exit status distinguishes the failure modes so CI wrappers can react
// per cause:
//
//	0  no regression
//	1  regression beyond the threshold
//	2  usage error (bad flags or arguments)
//	3  unreadable input (e.g. missing baseline file)
//	4  malformed input (Benchmark lines present but none parsed)
//	5  empty input (no benchmark data at all)
//	6  baseline and candidate measured on different hosts
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Sentinel parse failures; run maps each to its own exit status.
var (
	errMalformedInput = errors.New("Benchmark lines present but none parsed; is the output truncated or corrupted?")
	errEmptyInput     = errors.New("no benchmark data found (empty input)")
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// HasAllocs distinguishes a measured 0 allocs/op from a run without
	// -benchmem.
	HasAllocs bool `json:"has_allocs,omitempty"`
	// Host stamps where the result was measured (see hostStamp); empty
	// when the input did not say.
	Host string `json:"host,omitempty"`
}

// File is the canonical JSON document -record writes.
type File struct {
	Benchmarks []Result `json:"benchmarks"`
}

// normalizeName strips the trailing -GOMAXPROCS suffix so runs from
// machines with different core counts still line up.
func normalizeName(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// hostStamp describes the measuring host from the `go test -bench`
// header (header maps "cpu", "goos" and "goarch" to their values) and a
// raw benchmark name's -GOMAXPROCS suffix. It is empty without a cpu
// line.
func hostStamp(header map[string]string, rawName string) string {
	cpu := header["cpu"]
	if cpu == "" {
		return ""
	}
	procs := "?"
	if i := strings.LastIndexByte(rawName, '-'); i > 0 {
		if _, err := strconv.Atoi(rawName[i+1:]); err == nil {
			procs = rawName[i+1:]
		}
	}
	return fmt.Sprintf("%s, %s/%s, GOMAXPROCS=%s, %s", cpu, header["goos"], header["goarch"], procs, runtime.Version())
}

// parseBenchLine parses one `go test -bench` result line, reporting ok =
// false for non-benchmark lines.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: normalizeName(fields[0]), Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
			r.HasAllocs = true
		}
	}
	return r, seen
}

// statFn reduces one benchmark's repeated measurements (from
// `go test -count=N`) to a single value.
type statFn func([]float64) float64

func statMean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func statMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// statByName maps the -stat flag to its reducer.
var statByName = map[string]statFn{
	"mean":   statMean,
	"median": statMedian,
}

// reduce collapses duplicate benchmark names with the given statistic,
// damping run-to-run noise on busy measurement hosts. Order of first
// appearance is preserved; iterations are summed across runs.
func reduce(results []Result, stat statFn) []Result {
	var out []Result
	idx := make(map[string]int)
	samples := make(map[string][3][]float64)
	for _, res := range results {
		i, ok := idx[res.Name]
		if !ok {
			i = len(out)
			idx[res.Name] = i
			out = append(out, res)
			samples[res.Name] = [3][]float64{{res.NsPerOp}, {res.BytesPerOp}, {res.AllocsPerOp}}
			continue
		}
		s := samples[res.Name]
		s[0] = append(s[0], res.NsPerOp)
		s[1] = append(s[1], res.BytesPerOp)
		s[2] = append(s[2], res.AllocsPerOp)
		samples[res.Name] = s
		out[i].Iterations += res.Iterations
		out[i].HasAllocs = out[i].HasAllocs || res.HasAllocs
	}
	for i := range out {
		s := samples[out[i].Name]
		if len(s[0]) > 1 {
			out[i].NsPerOp = stat(s[0])
			out[i].BytesPerOp = stat(s[1])
			out[i].AllocsPerOp = stat(s[2])
		}
	}
	return out
}

// parse reads benchmark results from r, auto-detecting the format.
// Duplicate names are preserved; callers collapse them with reduce.
func parse(r io.Reader) ([]Result, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// Canonical JSON is a single document with a "benchmarks" key.
	if trimmed := strings.TrimSpace(string(data)); strings.HasPrefix(trimmed, "{") {
		var f File
		if err := json.Unmarshal([]byte(trimmed), &f); err == nil && f.Benchmarks != nil {
			if len(f.Benchmarks) == 0 {
				return nil, errEmptyInput
			}
			return f.Benchmarks, nil
		}
	}
	var out []Result
	benchLike := 0 // lines that looked like benchmark results but failed to parse
	header := make(map[string]string)
	consume := func(line string) {
		if res, ok := parseBenchLine(line); ok {
			res.Host = hostStamp(header, strings.Fields(line)[0])
			out = append(out, res)
		} else if strings.HasPrefix(line, "Benchmark") {
			benchLike++
		} else if key, val, ok := strings.Cut(line, ": "); ok && (key == "cpu" || key == "goos" || key == "goarch") {
			header[key] = val
		}
	}
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		trimmed := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(trimmed, "{") {
			// test2json event: benchmark lines arrive as output events.
			var ev struct {
				Action string `json:"Action"`
				Output string `json:"Output"`
			}
			if err := json.Unmarshal([]byte(trimmed), &ev); err == nil && ev.Action == "output" {
				consume(strings.TrimSpace(ev.Output))
				continue
			}
		}
		consume(trimmed)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		if benchLike > 0 {
			return nil, fmt.Errorf("%w (%d candidate line(s))", errMalformedInput, benchLike)
		}
		return nil, errEmptyInput
	}
	return out, nil
}

func parseFile(path string, stat statFn) ([]Result, error) {
	if path == "-" {
		res, err := parse(os.Stdin)
		if err != nil {
			return nil, err
		}
		return reduce(res, stat), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reduce(res, stat), nil
}

// filterResults keeps the benchmarks whose name matches re (nil = all).
// An input left empty by the filter is an empty-input error, the same
// failure as a file with no benchmark data: silently comparing nothing
// would report "ok" for a slice that never ran.
func filterResults(results []Result, re *regexp.Regexp, path string) ([]Result, error) {
	if re == nil {
		return results, nil
	}
	kept := results[:0]
	for _, r := range results {
		if re.MatchString(r.Name) {
			kept = append(kept, r)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("%s: %w (no benchmark matches -bench %q)", path, errEmptyInput, re.String())
	}
	return kept, nil
}

// exitCodeFor maps a parseFile failure to its exit status: malformed
// and empty inputs get their own codes; anything else is an I/O error.
func exitCodeFor(err error) int {
	switch {
	case errors.Is(err, errMalformedInput):
		return 4
	case errors.Is(err, errEmptyInput):
		return 5
	default:
		return 3
	}
}

// Regression is one threshold violation.
type Regression struct {
	Name   string
	Metric string
	Old    float64
	New    float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.6g -> %.6g (%+.1f%%)", r.Name, r.Metric, r.Old, r.New, 100*(r.New/r.Old-1))
}

// ratio formats new relative to old for the comparison table.
func ratio(oldV, newV float64) string {
	if oldV == 0 {
		if newV == 0 {
			return "=" // 0 -> 0
		}
		return "worse (from 0)"
	}
	return fmt.Sprintf("%+.1f%%", 100*(newV/oldV-1))
}

// compare returns the regressions of new against old under the
// threshold (e.g. 0.10 allows 10% slack on ns/op and allocs/op).
// crossHost returns the first benchmark, in candidate order, that both
// inputs hold with different host stamps.
func crossHost(oldRes, newRes []Result) (o, n Result, found bool) {
	oldBy := make(map[string]Result, len(oldRes))
	for _, r := range oldRes {
		oldBy[r.Name] = r
	}
	for _, n := range newRes {
		if o, ok := oldBy[n.Name]; ok && o.Host != "" && n.Host != "" && o.Host != n.Host {
			return o, n, true
		}
	}
	return Result{}, Result{}, false
}

func compare(oldRes, newRes []Result, threshold float64) []Regression {
	oldBy := make(map[string]Result, len(oldRes))
	for _, r := range oldRes {
		oldBy[r.Name] = r
	}
	var regs []Regression
	for _, n := range newRes {
		o, ok := oldBy[n.Name]
		if !ok {
			continue
		}
		if o.NsPerOp > 0 && n.NsPerOp > o.NsPerOp*(1+threshold) {
			regs = append(regs, Regression{n.Name, "ns/op", o.NsPerOp, n.NsPerOp})
		}
		if o.HasAllocs && n.HasAllocs {
			limit := o.AllocsPerOp * (1 + threshold)
			if o.AllocsPerOp == 0 {
				limit = 0 // zero-alloc benchmarks must stay zero-alloc
			}
			if n.AllocsPerOp > limit {
				regs = append(regs, Regression{n.Name, "allocs/op", o.AllocsPerOp, n.AllocsPerOp})
			}
		}
	}
	return regs
}

// writeTable prints the comparison rows and returns how many benchmarks
// have no baseline entry. compare cannot gate those, so their rows say
// so instead of showing a delta.
func writeTable(w io.Writer, oldRes, newRes []Result) int {
	oldBy := make(map[string]Result, len(oldRes))
	for _, r := range oldRes {
		oldBy[r.Name] = r
	}
	names := make([]string, 0, len(newRes))
	for _, r := range newRes {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	newBy := make(map[string]Result, len(newRes))
	for _, r := range newRes {
		newBy[r.Name] = r
	}
	fmt.Fprintf(w, "%-44s %14s %14s %10s %12s\n", "benchmark", "old ns/op", "new ns/op", "Δns", "Δallocs")
	unbased := 0
	for _, name := range names {
		n := newBy[name]
		o, ok := oldBy[name]
		if !ok {
			fmt.Fprintf(w, "%-44s %14s %14.0f  new (no baseline)\n", name, "-", n.NsPerOp)
			unbased++
			continue
		}
		dAllocs := "-"
		if o.HasAllocs && n.HasAllocs {
			dAllocs = ratio(o.AllocsPerOp, n.AllocsPerOp)
		}
		fmt.Fprintf(w, "%-44s %14.0f %14.0f %10s %12s\n", name, o.NsPerOp, n.NsPerOp, ratio(o.NsPerOp, n.NsPerOp), dAllocs)
	}
	for _, r := range oldRes {
		if _, ok := newBy[r.Name]; !ok {
			fmt.Fprintf(w, "%-44s %14.0f %14s %10s %12s\n", r.Name, r.NsPerOp, "(absent)", "-", "-")
		}
	}
	return unbased
}

// DiffEntry is one benchmark's comparison row in -json output. Nil
// pointers mark a benchmark absent from that side; DeltaNs and
// DeltaAllocs are fractional changes (0.1 = +10%) present only when
// both sides measured the metric.
type DiffEntry struct {
	Name        string   `json:"name"`
	OldNsPerOp  *float64 `json:"old_ns_per_op,omitempty"`
	NewNsPerOp  *float64 `json:"new_ns_per_op,omitempty"`
	DeltaNs     *float64 `json:"delta_ns,omitempty"`
	OldAllocs   *float64 `json:"old_allocs_per_op,omitempty"`
	NewAllocs   *float64 `json:"new_allocs_per_op,omitempty"`
	DeltaAllocs *float64 `json:"delta_allocs,omitempty"`
}

// DiffRegression is one threshold violation in -json output.
type DiffRegression struct {
	Name   string  `json:"name"`
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
}

// DiffDoc is the top-level -json comparison document.
type DiffDoc struct {
	Threshold   float64          `json:"threshold"`
	OK          bool             `json:"ok"`
	Benchmarks  []DiffEntry      `json:"benchmarks"`
	Regressions []DiffRegression `json:"regressions"`
}

// buildDiff assembles the machine-readable comparison: the union of
// both result sets sorted by name, plus the regression list.
func buildDiff(oldRes, newRes []Result, regs []Regression, threshold float64) DiffDoc {
	byName := map[string]*DiffEntry{}
	var names []string
	get := func(name string) *DiffEntry {
		if e, ok := byName[name]; ok {
			return e
		}
		e := &DiffEntry{Name: name}
		byName[name] = e
		names = append(names, name)
		return e
	}
	ptr := func(v float64) *float64 { return &v }
	for _, r := range oldRes {
		e := get(r.Name)
		e.OldNsPerOp = ptr(r.NsPerOp)
		if r.HasAllocs {
			e.OldAllocs = ptr(r.AllocsPerOp)
		}
	}
	for _, r := range newRes {
		e := get(r.Name)
		e.NewNsPerOp = ptr(r.NsPerOp)
		if r.HasAllocs {
			e.NewAllocs = ptr(r.AllocsPerOp)
		}
	}
	sort.Strings(names)
	doc := DiffDoc{Threshold: threshold, OK: len(regs) == 0, Regressions: []DiffRegression{}}
	for _, name := range names {
		e := byName[name]
		if e.OldNsPerOp != nil && e.NewNsPerOp != nil && *e.OldNsPerOp > 0 {
			e.DeltaNs = ptr(*e.NewNsPerOp / *e.OldNsPerOp - 1)
		}
		if e.OldAllocs != nil && e.NewAllocs != nil && *e.OldAllocs > 0 {
			e.DeltaAllocs = ptr(*e.NewAllocs / *e.OldAllocs - 1)
		}
		doc.Benchmarks = append(doc.Benchmarks, *e)
	}
	for _, r := range regs {
		doc.Regressions = append(doc.Regressions, DiffRegression{Name: r.Name, Metric: r.Metric, Old: r.Old, New: r.New})
	}
	return doc
}

func record(outPath string, results []Result) error {
	f := File{Benchmarks: results}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(outPath, data, 0o644)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0.10, "allowed fractional regression in ns/op and allocs/op")
	recordPath := fs.String("record", "", "parse one input and write canonical JSON to this path instead of comparing")
	jsonOut := fs.Bool("json", false, "emit the comparison as a JSON document instead of a table")
	benchFilter := fs.String("bench", "", "only consider benchmarks whose name matches this regexp")
	statName := fs.String("stat", "mean", "aggregate repeated runs of a benchmark with this statistic: mean or median")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchdiff [-threshold 0.10] [-json] [-bench regexp] [-stat mean|median] old new")
		fmt.Fprintln(stderr, "       benchdiff -record out.json bench-output")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stat, ok := statByName[*statName]
	if !ok {
		fmt.Fprintf(stderr, "benchdiff: -stat %q: want mean or median\n", *statName)
		return 2
	}
	var benchRe *regexp.Regexp
	if *benchFilter != "" {
		var err error
		if benchRe, err = regexp.Compile(*benchFilter); err != nil {
			fmt.Fprintln(stderr, "benchdiff: -bench:", err)
			return 2
		}
	}
	if *recordPath != "" {
		if fs.NArg() != 1 {
			fs.Usage()
			return 2
		}
		results, err := parseFile(fs.Arg(0), stat)
		if err == nil {
			results, err = filterResults(results, benchRe, fs.Arg(0))
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return exitCodeFor(err)
		}
		if err := record(*recordPath, results); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 3
		}
		fmt.Fprintf(stdout, "recorded %d benchmarks to %s\n", len(results), *recordPath)
		return 0
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	oldRes, err := parseFile(fs.Arg(0), stat)
	if err == nil {
		oldRes, err = filterResults(oldRes, benchRe, fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff: baseline:", err)
		return exitCodeFor(err)
	}
	newRes, err := parseFile(fs.Arg(1), stat)
	if err == nil {
		newRes, err = filterResults(newRes, benchRe, fs.Arg(1))
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff: candidate:", err)
		return exitCodeFor(err)
	}
	if o, n, ok := crossHost(oldRes, newRes); ok {
		fmt.Fprintf(stderr, "benchdiff: %s: baseline measured on %q, candidate on %q; measure both on one host\n", n.Name, o.Host, n.Host)
		return 6
	}
	regs := compare(oldRes, newRes, *threshold)
	if *jsonOut {
		// Machine-readable mode: same exit-code contract, one JSON
		// document on stdout instead of the table.
		data, err := json.MarshalIndent(buildDiff(oldRes, newRes, regs, *threshold), "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 3
		}
		fmt.Fprintln(stdout, string(data))
		if len(regs) > 0 {
			return 1
		}
		return 0
	}
	if unbased := writeTable(stdout, oldRes, newRes); unbased > 0 {
		fmt.Fprintf(stdout, "\n%d benchmark(s) new (no baseline): not gated until recorded\n", unbased)
	}
	if len(regs) == 0 {
		fmt.Fprintf(stdout, "\nok: no regression beyond %.0f%%\n", *threshold*100)
		return 0
	}
	fmt.Fprintf(stdout, "\nFAIL: %d regression(s) beyond %.0f%%\n", len(regs), *threshold*100)
	for _, r := range regs {
		fmt.Fprintln(stdout, "  "+r.String())
	}
	return 1
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
