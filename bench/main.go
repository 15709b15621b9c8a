// Command bench is the repository's end-to-end benchmark. It runs the
// optimizer the way the tradeoff CLI does, from data set build to the
// finished front, on the workloads listed in BENCHMARK.json, and
// reports the run metrics a user sees plus, when traced, per-layer
// timings taken around the public call into each layer. Every rep runs
// in a fresh child process, one at a time, and every rep's front is
// checked. Run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh                                  # every workload
//	bash bench/run.sh --workload paper-ds3 --seed 2 --seconds 20 --trace 0
//	bash bench/run.sh --trace 1 --trace-dir /path/to/spans
//	bash bench/run.sh -compare base.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// residualGate is the largest share of a traced run its spans may leave
// unattributed.
const residualGate = 0.05

func main() {
	if childRole() {
		return
	}
	var (
		name     = flag.String("workload", "", "workload to run (default: every workload)")
		seed     = flag.Uint64("seed", 1, "optimizer seed")
		seconds  = flag.Float64("seconds", 20, "measuring time per workload, in seconds")
		trace    = flag.Int("trace", 0, "1 adds traced reps after the untraced ones and reports the per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build/trace", "directory for the span JSONL of traced reps")
		out      = flag.String("out", ".bench_build/results.json", "results file")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark definition")
		cmp      = flag.Bool("compare", false, "compare two results files: -compare base.json new.json")
		record   = flag.String("record", "", "measure seeds 1 and 2 and write the reference values to this file")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d, want 0 or 1", *trace))
	}
	if *seed == 0 {
		*seed = 1 // as core.Framework.Optimize reads seed 0
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *cmp {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two results files"))
		}
		os.Exit(compare(sp, flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		selected = []workload{w}
	}
	ref, err := loadReference()
	if err != nil {
		fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	r := &runner{exe: exe, seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir, ref: ref, enforce: true}
	if r.trace {
		if err := os.MkdirAll(r.traceDir, 0o755); err != nil {
			fatal(err)
		}
	}
	if *record != "" {
		if err := recordReference(r, selected, *record); err != nil {
			fatal(err)
		}
		return
	}
	res := &results{Host: hostStamp(), Seconds: *seconds}
	for _, w := range selected {
		res.Workloads = append(res.Workloads, r.measure(w))
	}
	if err := writeJSON(*out, res); err != nil {
		fatal(err)
	}
	if ok := printReport(os.Stdout, sp, res, r.trace); !ok {
		os.Exit(1)
	}
}

// childRole runs this process as a rep child or a distributed worker
// when its parent started it as one, and reports whether it did.
func childRole() bool {
	if raw := os.Getenv(workerEnv); raw != "" {
		var ws workerSpec
		err := json.Unmarshal([]byte(raw), &ws)
		if err == nil {
			err = serveWorker(ws)
		}
		if err != nil {
			fatal(err)
		}
		return true
	}
	if len(os.Args) > 1 && os.Args[1] == "-rep" {
		fs := flag.NewFlagSet("rep", flag.ExitOnError)
		spec := fs.String("rep", "", "workload spec, as JSON")
		index := fs.Int("rep-index", 0, "rep number, used in the trace file name")
		seed := fs.Uint64("seed", 1, "optimizer seed")
		trace := fs.Int("trace", 0, "1 traces the rep")
		dir := fs.String("trace-dir", "", "directory for the rep's span JSONL")
		fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
		if err := runChild(*spec, *index, *seed, *trace == 1, *dir); err != nil {
			fatal(err)
		}
		return true
	}
	return false
}

// printReport prints every metric as `name value unit` under a host
// stamp and a line per workload, then the summary JSON line. It
// reports whether the run passed: every rep completed with a correct
// front, every metric in BENCHMARK.json was measured, and a traced run
// attributed all but residualGate of its time to spans.
func printReport(out io.Writer, sp *spec, res *results, traced bool) bool {
	fmt.Fprintln(out, res.Host)
	defs := sp.EndToEnd
	if traced {
		defs = sp.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	ok := true
	for _, wr := range res.Workloads {
		summary.Correct = summary.Correct && wr.Correct
		summary.Attempted += wr.Attempted
		summary.Failed += wr.Failed
		ok = ok && wr.Correct && wr.Failed == 0
		fmt.Fprintf(out, "== %s seed=%d attempted=%d failed=%d failed_frac=%.3f correct=%t digest=%s\n",
			wr.Workload, wr.Seed, wr.Attempted, wr.Failed, float64(wr.Failed)/float64(wr.Attempted), wr.Correct, wr.Digest)
		for _, p := range wr.Problems {
			fmt.Fprintln(out, "  problem:", p)
		}
		stats := wr.Run
		if traced {
			stats = wr.Layer
		}
		names := make([]string, 0, len(stats))
		for n := range stats {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := stats[n]
			fmt.Fprintf(out, "%s %.6g %s  min=%.6g max=%.6g n=%d\n", n, s.Median, s.Unit, s.Min, s.Max, s.N)
		}
		for _, d := range defs {
			s, found := stats[d.Name]
			if !found {
				fmt.Fprintf(out, "  missing metric %s\n", d.Name)
				ok = false
				continue
			}
			key := d.Name
			if len(res.Workloads) > 1 {
				key = wr.Workload + "." + d.Name
			}
			summary.Metrics[key] = value{s.Median, s.Unit}
		}
		if traced {
			if s, found := stats["trace.residual_frac"]; found && s.Median > residualGate {
				fmt.Fprintf(out, "  trace.residual_frac %.4f exceeds the %.2f reconciliation gate\n", s.Median, residualGate)
				ok = false
			}
		}
	}
	line, err := marshalLine(summary)
	if err != nil {
		fatal(err)
	}
	out.Write(line) //nolint:errcheck // stdout
	return ok
}

// recordReference measures seeds 1 and 2 of each workload and writes
// their digests and hv_ratio, with seed 1's median wall_s, to path,
// keeping the recorded values of workloads not measured.
func recordReference(r *runner, selected []workload, path string) error {
	r.enforce = false
	for _, w := range selected {
		entry := r.ref[w.Name]
		entry.Seeds = map[string]recorded{}
		for _, seed := range []uint64{1, 2} {
			r.seed = seed
			wr := r.measure(w)
			if !wr.Correct || wr.Failed > 0 {
				return fmt.Errorf("%s seed %d: %v", w.Name, seed, wr.Problems)
			}
			entry.Seeds[strconv.FormatUint(seed, 10)] = recorded{Digest: wr.Digest, HVRatio: wr.Run["hv_ratio"].Median}
			if seed == 1 {
				entry.WallS = wr.Run["wall_s"].Median
			}
		}
		r.ref[w.Name] = entry
	}
	return writeJSON(path, r.ref)
}

// writeJSON writes v, indented, to path, creating its directory.
func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
