// Command tracestat validates and analyzes a JSONL telemetry trace
// produced by the -trace flag of cmd/tradeoff or cmd/experiments (any
// schema version v1–v5): phase-time rollups, per-label hypervolume
// trajectories with convergence-stall detection, and island migration
// summaries.
//
// Usage:
//
//	tracestat run.jsonl
//	tracestat -json < run.jsonl
//	tracestat -stall-window 100 -fail-on-stall run.jsonl
//	tracestat run.jsonl.w0 run.jsonl.w1
//
// Several trace files merge into one analysis — the shape a distributed
// run leaves behind: one worker-local trace per -distribute process
// (suffix .wN), each covering only that worker's island shard.
// Migration summaries aggregate across files, so the islands section
// reconstructs the full ring — total migrant counts and the tick skew
// between islands (max - min last migration generation) — even though
// no single worker logged every edge; a straggling worker's islands
// show up as nonzero skew. (Merge the worker traces OR analyze the
// parent's authoritative trace alone; merging both would count the
// shared events twice.)
//
// Every record is validated against its schema version's rules:
// required fields per record type, per-label generation numbers
// strictly increasing, counts within range. The first violation is
// reported as "tracestat: FILE:LINE: TYPE record: ..." (FILE is "stdin"
// when no file is given, and names the failing file when several are)
// and exits 1. Analysis of valid traces prints a text report, or the
// full analysis as JSON with -json. Exit status: 0 on success, 1 for
// an invalid trace, 2 for usage or I/O errors, 3 when -fail-on-stall is
// set and a hypervolume plateau of at least -stall-window generations
// was detected.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tradeoff/internal/obs"
)

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracestat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the analysis as JSON")
	stallWindow := fs.Int("stall-window", 50, "generations without hypervolume improvement that flag a stall")
	stallTol := fs.Float64("stall-tol", 1e-4, "relative hypervolume gain below which a generation counts as no improvement")
	failOnStall := fs.Bool("fail-on-stall", false, "exit 3 when any label stalled")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ins []io.Reader
	names := fs.Args()
	if len(names) == 0 {
		names, ins = []string{"stdin"}, []io.Reader{stdin}
	}
	for _, arg := range fs.Args() {
		f, err := os.Open(arg)
		if err != nil {
			fmt.Fprintln(stderr, "tracestat:", err)
			return 2
		}
		defer f.Close()
		ins = append(ins, f)
	}
	name := strings.Join(names, ", ")
	an, err := obs.AnalyzeTraces(ins, obs.AnalyzeOptions{
		StallWindow: *stallWindow,
		StallTol:    *stallTol,
	})
	if err != nil {
		failed := names[0]
		var ie *obs.InputError
		if errors.As(err, &ie) {
			failed, err = names[ie.Index], ie.Err
		}
		var te *obs.TraceError
		switch {
		case errors.As(err, &te) && te.RecordType != "":
			fmt.Fprintf(stderr, "tracestat: %s:%d: %s record: %v\n", failed, te.Line, te.RecordType, te.Err)
		case errors.As(err, &te):
			fmt.Fprintf(stderr, "tracestat: %s:%d: %v\n", failed, te.Line, te.Err)
		default:
			fmt.Fprintf(stderr, "tracestat: %s: %v\n", failed, err)
		}
		return 1
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(an); err != nil {
			fmt.Fprintln(stderr, "tracestat:", err)
			return 2
		}
	} else {
		writeText(stdout, name, an)
	}
	if *failOnStall && an.Stalled {
		fmt.Fprintf(stderr, "tracestat: %s: convergence stall detected (plateau >= %d generations)\n", name, *stallWindow)
		return 3
	}
	return 0
}

func writeText(w io.Writer, name string, an *obs.TraceAnalysis) {
	fmt.Fprintf(w, "%s: %d generation, %d migration, %d run record(s)\n",
		name, an.Records.Generations, an.Records.Migrations, an.Records.Runs)
	if len(an.Phases) > 0 {
		fmt.Fprintf(w, "\nphase time (%d profiled generation(s)):\n", an.ProfiledGenerations)
		fmt.Fprintf(w, "  %-14s %14s %7s\n", "phase", "total (ms)", "share")
		for _, p := range an.Phases {
			fmt.Fprintf(w, "  %-14s %14.3f %6.1f%%\n", p.Phase, float64(p.TotalNanos)/1e6, 100*p.Share)
		}
	}
	for _, l := range an.Labels {
		label := l.Label
		if label == "" {
			label = "(unlabeled)"
		}
		fmt.Fprintf(w, "\nlabel %s: generations %d-%d (%d record(s))\n",
			label, l.FirstGen, l.LastGen, l.Generations)
		fmt.Fprintf(w, "  hypervolume %.6g -> %.6g (best %.6g at generation %d)\n",
			l.HVFirst, l.HVLast, l.HVBest, l.BestGen)
		stalled := ""
		if l.Stalled {
			stalled = "   <- stalled"
		}
		fmt.Fprintf(w, "  plateau: max %d, %d open at end of trace%s\n", l.MaxPlateau, l.EndPlateau, stalled)
	}
	if is := an.Islands; is != nil {
		fmt.Fprintf(w, "\nislands: %d island(s), %d migration tick(s), %d migrant(s), tick skew %d\n",
			is.Islands, is.Ticks, is.Migrants, is.TickSkew)
		for _, st := range is.PerIsland {
			fmt.Fprintf(w, "  island %d: %d migrant(s) sent, last tick at generation %d\n",
				st.Island, st.Migrants, st.LastGen)
		}
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }
