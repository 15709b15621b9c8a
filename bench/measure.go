package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childProcs is the GOMAXPROCS every rep runs with. On the 2-core
// recording host, GOMAXPROCS=2 doubled the run-to-run spread of wall_s
// (15% against 7% over ten seeds of paper-ds3): every evaluation
// fan-out waits for its slower core. Distributed workers also run with
// GOMAXPROCS=1, so islands-ds1-dist2 is the workload that uses both
// cores.
const childProcs = 1

// reference holds the values recorded for each workload on the
// recording host: the median wall_s of seed 1, which sets the rep
// timeout, and the front digest and hv_ratio of seeds 1 and 2. Only a
// change that redefines the benchmark re-records them (-record).
type reference map[string]struct {
	WallS float64             `json:"wall_s"`
	Seeds map[string]recorded `json:"seeds"`
}

type recorded struct {
	Digest  string  `json:"digest"`
	HVRatio float64 `json:"hv_ratio"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// stat summarizes one metric over a workload's reps.
type stat struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(name string, xs []float64) stat {
	q1, med, q3 := quartiles(xs)
	s := stat{Unit: unitOf(name), Median: med, Q1: q1, Q3: q3, N: len(xs), Samples: xs,
		Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		s.Min, s.Max = math.Min(s.Min, x), math.Max(s.Max, x)
	}
	return s
}

// quartiles returns the first quartile, median and third quartile of
// xs, which must not be empty, with the method of Python's
// statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, len(d)-1))
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// unitOf derives a metric's unit from its name's suffix.
func unitOf(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_s", "s"}, {"_ms", "ms"}, {"_ms_p50", "ms"}, {"_ms_p99", "ms"},
		{"_us", "us"}, {"_ns", "ns"}, {"_ns_per_task", "ns"}, {"_mb", "MB"},
		{"_bytes", "bytes"}, {"_frac", "ratio"}, {"_ratio", "ratio"}, {"_compression", "ratio"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}

// workloadResult is one workload's measurement, as written to the
// results file and read back by -compare.
type workloadResult struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Digest    string   `json:"digest"`
	// Run holds the end-to-end metrics over the untraced reps; Layer the
	// per-layer metrics over the traced reps.
	Run   map[string]stat `json:"run"`
	Layer map[string]stat `json:"layer,omitempty"`
}

// outcome is one rep as the parent saw it.
type outcome struct {
	traced bool
	res    *repResult // nil when the rep failed to complete
	err    string
}

// runner measures workloads by running each rep in a fresh child
// process, one at a time.
type runner struct {
	exe      string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	ref      reference
	// enforce compares digests against the recorded ones; off while
	// re-recording them.
	enforce bool
}

// timeout bounds one rep at four times its recorded wall time.
func (r *runner) timeout(w workload) time.Duration {
	if wall := r.ref[w.Name].WallS; wall > 0 {
		return max(10*time.Second, time.Duration(4*wall*float64(time.Second)))
	}
	return 2 * time.Minute
}

// rep runs one rep of w in a child process and folds the child's
// resource usage into its metrics.
func (r *runner) rep(w workload, index int, traced bool) outcome {
	spec, err := json.Marshal(w)
	if err != nil {
		return outcome{traced: traced, err: err.Error()}
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.timeout(w))
	defer cancel()
	cmd := exec.CommandContext(ctx, r.exe, "-rep", string(spec), "-rep-index", strconv.Itoa(index),
		"-seed", strconv.FormatUint(r.seed, 10), "-trace", trace, "-trace-dir", r.traceDir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	// The rep leads its own process group, so a timeout also stops any
	// distributed workers it forked.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err = cmd.Run()
	if ctx.Err() != nil {
		return outcome{traced: traced, err: fmt.Sprintf("rep %d timed out after %v", index, r.timeout(w))}
	}
	if err != nil {
		return outcome{traced: traced, err: fmt.Sprintf("rep %d: %v", index, err)}
	}
	res := &repResult{}
	if err := json.Unmarshal(stdout.Bytes(), res); err != nil {
		return outcome{traced: traced, err: fmt.Sprintf("rep %d output: %v", index, err)}
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		res.Metrics["cpu_s"] = cpu.Seconds()
		res.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return outcome{traced: traced, res: res}
}

// inProcess is the single-process equivalent of a distributed
// workload: the same ring stepped synchronously, bit-identical to it.
func (w workload) inProcess() workload {
	w.Name += "-ref"
	w.Workers = 0
	return w
}

// measure runs reps of w until the time budget is spent: untraced reps
// only, or with trace set, untraced reps for the first half and traced
// reps for the second. A distributed workload first runs its
// in-process equivalent once; every distributed rep must reproduce
// that front, and in a traced run it supplies the engine phase split,
// which the coordinator cannot see inside the worker processes.
func (r *runner) measure(w workload) *workloadResult {
	start := time.Now()
	budget := time.Duration(r.seconds * float64(time.Second))
	var base *outcome
	if w.Workers > 0 {
		o := r.rep(w.inProcess(), 0, r.trace)
		base = &o
	}
	var outs []outcome
	phase := func(traced bool, until time.Duration) {
		for n := 0; n == 0 || time.Since(start) < until; n++ {
			outs = append(outs, r.rep(w, len(outs)+1, traced))
		}
	}
	if r.trace {
		phase(false, budget/2)
		phase(true, budget)
	} else {
		phase(false, budget)
	}
	return r.judge(w, base, outs)
}

// judge checks every rep's outputs and aggregates the metrics.
func (r *runner) judge(w workload, base *outcome, outs []outcome) *workloadResult {
	wr := &workloadResult{Workload: w.Name, Seed: r.seed, Correct: true, Run: map[string]stat{}}
	fail := func(problem string) {
		wr.Failed++
		wr.Problems = append(wr.Problems, problem)
	}
	want := ""
	if rec, ok := r.ref[w.Name].Seeds[strconv.FormatUint(r.seed, 10)]; ok && r.enforce {
		want = rec.Digest
	}
	if base != nil {
		wr.Attempted++
		switch {
		case base.res == nil:
			fail("in-process reference: " + base.err)
			wr.Correct = false
		case base.res.Problem != "":
			fail("in-process reference: " + base.res.Problem)
			wr.Correct = false
		case want != "" && base.res.Digest != want:
			fail(fmt.Sprintf("in-process reference digest %s, recorded %s", base.res.Digest, want))
			wr.Correct = false
		default:
			want = base.res.Digest
		}
	}
	var ok []outcome
	for _, o := range outs {
		wr.Attempted++
		switch {
		case o.res == nil:
			fail(o.err)
		case o.res.Problem != "":
			fail(o.res.Problem)
			wr.Correct = false
		case want != "" && o.res.Digest != want:
			fail(fmt.Sprintf("front digest %s, want %s", o.res.Digest, want))
			wr.Correct = false
		default:
			want = o.res.Digest
			ok = append(ok, o)
		}
	}
	wr.Digest = want
	aggregate(wr, ok, base)
	return wr
}

// aggregate summarizes the metrics of the successful reps: untraced
// reps give the run metrics, traced reps the layer metrics.
func aggregate(wr *workloadResult, ok []outcome, base *outcome) {
	var untraced, traced []map[string]float64
	var steps []float64
	for _, o := range ok {
		if o.traced {
			traced = append(traced, o.res.Metrics)
			steps = append(steps, o.res.StepsMS...)
		} else {
			untraced = append(untraced, o.res.Metrics)
		}
	}
	for _, name := range metricNames(untraced) {
		wr.Run[name] = summarize(name, column(untraced, name))
	}
	if len(traced) == 0 {
		return
	}
	if base != nil && base.res != nil && base.traced {
		// Worker engines are out of reach: take the phase split from the
		// in-process reference, which steps the same ring.
		for _, name := range metricNames([]map[string]float64{base.res.Metrics}) {
			if strings.HasPrefix(name, "nsga2.phase") {
				for _, m := range traced {
					m[name] = base.res.Metrics[name]
				}
			}
		}
	}
	wr.Layer = map[string]stat{}
	for _, name := range metricNames(traced) {
		wr.Layer[name] = summarize(name, column(traced, name))
	}
	wr.Layer["nsga2.step_ms_p50"] = summarize("nsga2.step_ms_p50", []float64{percentile(steps, 0.50)})
	wr.Layer["nsga2.step_ms_p99"] = summarize("nsga2.step_ms_p99", []float64{percentile(steps, 0.99)})
	if len(untraced) > 0 {
		over := wr.Layer["wall_s"].Median/wr.Run["wall_s"].Median - 1
		wr.Layer["trace.overhead_frac"] = summarize("trace.overhead_frac", []float64{over})
	}
}

// metricNames returns the sorted union of the metric names in ms.
func metricNames(ms []map[string]float64) []string {
	seen := map[string]bool{}
	var names []string
	for _, m := range ms {
		for name := range m {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	return names
}

// column collects one metric across reps, skipping reps that lack it.
func column(ms []map[string]float64, name string) []float64 {
	var xs []float64
	for _, m := range ms {
		if v, ok := m[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// percentile is the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d[max(0, int(math.Ceil(q*float64(len(d))))-1)]
}

// runChild is the child side of rep: run one rep in this process,
// write its spans when traced, and print the result.
func runChild(spec string, index int, seed uint64, traced bool, traceDir string) error {
	var w workload
	if err := json.Unmarshal([]byte(spec), &w); err != nil {
		return fmt.Errorf("rep spec: %w", err)
	}
	res, tr, err := runRep(w, seed, traced)
	if err != nil {
		return err
	}
	if traced {
		id := fmt.Sprintf("%s-s%d-r%d", w.Name, seed, index)
		if err := tr.writeJSONL(filepath.Join(traceDir, id+".jsonl"), id); err != nil {
			return err
		}
	}
	line, err := marshalLine(res)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(line)
	return err
}

// marshalLine encodes v as one line of JSON.
func marshalLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
