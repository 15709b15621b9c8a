package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// results is the file a measurement writes and -compare reads.
type results struct {
	Host      host              `json:"host"`
	Seconds   float64           `json:"seconds"`
	Workloads []*workloadResult `json:"workloads"`
}

func loadResults(path string) (*results, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// timeFloor is the absolute change below which a time metric never
// counts as moved, per unit: 0.05 s.
var timeFloor = map[string]float64{"s": 0.05, "ms": 50, "us": 5e4, "ns": 5e7}

// label judges one (metric, workload) pair of a comparison. A change
// counts only beyond the metric's bound (a share of the base median,
// at least the time floor). When either side's spread, the distance
// between its quartiles, is wider than that, the pair is unresolved
// unless every new sample is on the same side of every base sample.
func label(def metricDef, base, cur stat) string {
	tol := math.Max(def.Bound*math.Abs(base.Median), timeFloor[def.Unit])
	worse := cur.Median - base.Median // > 0 is worse for "lower"
	if def.Better == "higher" {
		worse = -worse
	}
	if base.Q3-base.Q1 > tol || cur.Q3-cur.Q1 > tol {
		switch {
		case separated(base, cur, def.Better == "lower"):
			return "improved"
		case separated(base, cur, def.Better == "higher"):
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case worse > tol:
		return "worse"
	case worse < -tol:
		return "improved"
	}
	return "unchanged"
}

// separated reports whether every sample of cur lies below (or, with
// below unset, above) every sample of base.
func separated(base, cur stat, below bool) bool {
	if below {
		return cur.Max < base.Min
	}
	return cur.Min > base.Max
}

// compare prints a per-(metric, workload) verdict of newPath against
// basePath and returns the exit code: 0 when nothing got worse, 1 when
// something did, 2 when the host stamps differ, 3 when an input cannot
// be read.
func compare(sp *spec, basePath, newPath string, out io.Writer) int {
	base, err := loadResults(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 3
	}
	cur, err := loadResults(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 3
	}
	if !base.Host.sameMachine(cur.Host) {
		fmt.Fprintf(out, "host stamps differ; refusing to compare\n  base: %s\n  new:  %s\n", base.Host, cur.Host)
		return 2
	}
	code := 0
	fmt.Fprintf(out, "%-20s %-14s %12s %12s %8s  %s\n", "workload", "metric", "base", "new", "change", "verdict")
	for _, nw := range cur.Workloads {
		var bw *workloadResult
		for _, w := range base.Workloads {
			if w.Workload == nw.Workload {
				bw = w
			}
		}
		if bw == nil {
			fmt.Fprintf(out, "%-20s not in %s\n", nw.Workload, basePath)
			continue
		}
		for _, def := range sp.EndToEnd {
			b, okb := bw.Run[def.Name]
			c, okc := nw.Run[def.Name]
			if !okb || !okc {
				fmt.Fprintf(out, "%-20s %-14s missing\n", nw.Workload, def.Name)
				continue
			}
			verdict := label(def, b, c)
			if verdict == "worse" {
				code = 1
			}
			fmt.Fprintf(out, "%-20s %-14s %12.5g %12.5g %+7.1f%%  %s\n",
				nw.Workload, def.Name, b.Median, c.Median, 100*(c.Median/b.Median-1), verdict)
		}
	}
	return code
}
