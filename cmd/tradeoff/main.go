// Command tradeoff runs the analysis framework end to end: build (or
// load) a system, simulate a workload trace, evolve seeded NSGA-II
// populations, and report the utility/energy Pareto front with its
// maximum utility-per-energy region.
//
// Usage:
//
//	tradeoff [-dataset 1|2|3] [-generations 2000] [-pop 100] \
//	         [-seeds min-energy,max-utility] [-seed 1] \
//	         [-csv front.csv] [-svg front.svg] [-system system.json] \
//	         [-trace run.jsonl] [-phase-profile] \
//	         [-cpuprofile cpu.pprof]
//
// -trace streams one JSON object per generation (front points,
// convergence indicators, evaluation counters, and the generation's
// phase breakdown) to a file without changing the optimization result.
//
// -phase-profile times the engine's generation phases (selection,
// variation, evaluation, sort, archive, migration) and prints a
// per-phase summary after the run.
// -flight-recorder N retains the last N telemetry events in memory;
// SIGUSR1 (and a run-aborting panic) dumps them as trace JSONL to the
// -flight-dump path (stderr when unset). None of these change results.
//
// -checkpoints records intermediate fronts at the given generation
// counts (single population only) and -upe-tolerance widens or narrows
// the reported utility-per-energy region.
//
// -islands runs the island model with ring migration every
// -migration-interval generations; each island steps on its own
// goroutine under a logical-clock migration schedule.
// -archive bounds the reported front to at most N ε-dominance
// representatives, with box widths from -archive-eps or derived from
// the front's own extent — essential at 10^5+ tasks, where raw fronts
// hold thousands of near-duplicate points.
//
// -cpuprofile and -memprofile write pprof profiles of the run.
//
// With -system the environment is loaded from a JSON file produced by
// the datagen command instead of a built-in data set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"tradeoff/internal/core"
	"tradeoff/internal/experiments"
	"tradeoff/internal/hcs"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/nsga2"
	"tradeoff/internal/plot"
	"tradeoff/internal/report"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
	"tradeoff/internal/telemetry"
	"tradeoff/internal/workload"
)

func main() {
	var (
		dataset     = flag.Int("dataset", 1, "built-in data set 1-3")
		systemFile  = flag.String("system", "", "load system JSON instead of a built-in data set")
		tasks       = flag.Int("tasks", 0, "override task count (with -system or a data set)")
		window      = flag.Float64("window", 0, "override trace window in seconds")
		generations = flag.Int("generations", 2000, "NSGA-II generations")
		pop         = flag.Int("pop", 100, "population size")
		mutation    = flag.Float64("mutation", 0.1, "mutation probability")
		checkpoints = flag.String("checkpoints", "", "comma-separated generation counts to record intermediate fronts at (single population only)")
		upeTol      = flag.Float64("upe-tolerance", 0.05, "relative tolerance band for the max utility-per-energy region")
		seedsFlag   = flag.String("seeds", "min-energy,min-min,max-utility,max-utility-per-energy", "comma-separated seeding heuristics (empty = random)")
		seed        = flag.Uint64("seed", 1, "random seed")
		csvPath     = flag.String("csv", "", "write the front as CSV")
		svgPath     = flag.String("svg", "", "write the front as SVG")
		workers     = flag.Int("workers", 0, "evaluation workers (0 = GOMAXPROCS)")
		idleWatts   = flag.Float64("idlewatts", 0, "idle power draw per machine in watts (0 = paper's execution-only energy model)")
		dropBelow   = flag.Float64("drop", -1, "post-process: drop tasks earning <= this utility (negative = off)")
		stats       = flag.Bool("stats", false, "print trace statistics before optimizing")
		saveTrace   = flag.String("savetrace", "", "write the generated trace as JSON and continue")
		loadTrace   = flag.String("loadtrace", "", "load the trace from JSON instead of generating one")
		reportPath  = flag.String("report", "", "write a Markdown analysis report")
		ganttPath   = flag.String("gantt", "", "write the efficient-region schedule as Gantt CSV")
		traceCSV    = flag.String("tracecsv", "", "import the trace from a CSV (arrival,task_type[,priority,horizon])")
		islands     = flag.Int("islands", 0, "run the island model with this many populations (0 = single population)")
		migInterval = flag.Int("migration-interval", 25, "generations between island ring migrations (with -islands)")
		snapshotIn  = flag.String("snapshot-in", "", "resume an island run from this snapshot JSON (with -islands)")
		snapshotOut = flag.String("snapshot-out", "", "write the island run's final state to this snapshot JSON (with -islands)")
		archiveSize = flag.Int("archive", 0, "bound the reported front to at most this many ε-dominance representatives (0 = full front)")
		archiveEps  = flag.String("archive-eps", "", "comma-separated ε widths utility,energy for -archive (empty = derived from the front extent)")
		machines    = flag.Bool("machines", false, "print the per-machine breakdown of the efficient-region allocation")
		tracePath   = flag.String("trace", "", "stream per-generation JSONL telemetry to this file")
		phaseProf   = flag.Bool("phase-profile", false, "time the engine's generation phases and print a summary after the run")
		flightRec   = flag.Int("flight-recorder", 0, "retain the last N telemetry events for SIGUSR1/panic dumps (0 = off)")
		flightDump  = flag.String("flight-dump", "", "write flight-recorder dumps to this file (default stderr)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	// core.Options reads an unset (zero) interval as the default of 25.
	if *migInterval < 1 {
		fatal(fmt.Errorf("migration interval %d, want >= 1", *migInterval))
	}

	prof, err := telemetry.StartProfiler(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	profSession = prof

	// The wall clock enters here, at the command layer; internal packages
	// only ever see the injected obs.Clock.
	tel, err := telemetry.Setup(telemetry.Config{
		TracePath:      *tracePath,
		PhaseProfile:   *phaseProf,
		FlightRecorder: *flightRec,
		Clock:          func() int64 { return time.Now().UnixNano() },
	})
	if err != nil {
		fatal(err)
	}
	telSession = tel
	if fr := tel.FlightRecorder(); fr != nil {
		stop := telemetry.WatchFlightSignal("tradeoff", fr, *flightDump)
		defer stop()
		defer func() {
			if r := recover(); r != nil {
				telemetry.DumpFlight("tradeoff", fr, *flightDump, "panic")
				panic(r)
			}
		}()
	}

	fw, name, err := buildFramework(*dataset, *systemFile, *tasks, *window, *seed)
	if err != nil {
		fatal(err)
	}
	if *traceCSV != "" {
		f, err := os.Open(*traceCSV)
		if err != nil {
			fatal(err)
		}
		tr, err := workload.ImportCSV(f, fw.System(), *window, nil, rng.NewStream(*seed, 11))
		f.Close()
		if err != nil {
			fatal(err)
		}
		fw, err = core.New(fw.System(), tr)
		if err != nil {
			fatal(err)
		}
		name += " (csv trace: " + *traceCSV + ")"
	}
	if *loadTrace != "" {
		raw, err := os.ReadFile(*loadTrace)
		if err != nil {
			fatal(err)
		}
		tr, err := workload.DecodeTrace(raw, fw.System())
		if err != nil {
			fatal(err)
		}
		fw, err = core.New(fw.System(), tr)
		if err != nil {
			fatal(err)
		}
		name += " (trace: " + *loadTrace + ")"
	}
	if *saveTrace != "" {
		raw, err := workload.EncodeTrace(fw.Trace())
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*saveTrace, raw, 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *saveTrace)
	}
	if *idleWatts != 0 {
		// SetIdlePower rejects a negative or non-finite draw, so only
		// an exact 0 (the default) leaves the extension off.
		watts := make([]float64, fw.System().NumMachineTypes())
		for i := range watts {
			watts[i] = *idleWatts
		}
		if err := fw.Evaluator().SetIdlePower(watts); err != nil {
			fatal(err)
		}
	}
	if *stats {
		st, err := workload.Stats(fw.Trace(), fw.System())
		if err != nil {
			fatal(err)
		}
		st.Write(os.Stdout, fw.System())
		fmt.Println()
	}
	seeds, err := parseSeeds(*seedsFlag)
	if err != nil {
		fatal(err)
	}
	eps, err := parseEpsilon(*archiveEps)
	if err != nil {
		fatal(err)
	}
	cps, err := parseCheckpoints(*checkpoints)
	if err != nil {
		fatal(err)
	}
	opts := core.Options{
		Generations:       *generations,
		PopulationSize:    *pop,
		MutationRate:      *mutation,
		Seeds:             seeds,
		Checkpoints:       cps,
		RandomSeed:        *seed,
		Workers:           *workers,
		UPETolerance:      *upeTol,
		Islands:           *islands,
		MigrationInterval: *migInterval,
		ArchiveSize:       *archiveSize,
		ArchiveEpsilon:    eps,
		Observer:          tel.Observer(),
		PhaseTimer:        tel.PhaseTimer(),
	}
	fmt.Printf("analyzing %s: %d tasks over %.0f s on %d machines\n",
		name, fw.Trace().NumTasks(), fw.Trace().Window, fw.System().NumMachines())
	if *snapshotIn != "" {
		raw, err := os.ReadFile(*snapshotIn)
		if err != nil {
			fatal(err)
		}
		snap, err := nsga2.DecodeIslandsSnapshot(raw)
		if err != nil {
			fatal(fmt.Errorf("bad -snapshot-in %s: %w", *snapshotIn, err))
		}
		opts.Resume = snap
		fmt.Printf("resuming from %s at generation %d\n", *snapshotIn, snap.Generation)
	}
	opts.CaptureSnapshot = *snapshotOut != ""
	res, err := fw.Optimize(opts)
	if err != nil {
		fatal(err)
	}
	if *snapshotOut != "" {
		raw, err := nsga2.EncodeIslandsSnapshot(res.FinalSnapshot)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*snapshotOut, raw, 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *snapshotOut)
	}

	for _, cp := range res.Checkpoints {
		fmt.Printf("checkpoint at generation %d: %d front points\n", cp.Generation, len(cp.Front))
	}

	fmt.Printf("\nPareto front after %d generations (%d solutions):\n", res.Generations, len(res.Front))
	fmt.Printf("  %-14s %-14s %s\n", "energy (MJ)", "utility", "utility/MJ")
	for i, p := range res.Front {
		marker := ""
		switch {
		case i == res.Region.PeakIndex:
			marker = "   <- max utility-per-energy"
		case i >= res.Region.Lo && i <= res.Region.Hi:
			marker = "   <- efficient region"
		}
		fmt.Printf("  %-14.4f %-14.1f %.4f%s\n", p.Energy/1e6, p.Utility, p.UPE()*1e6, marker)
	}
	fmt.Printf("\nhypervolume: %.4g; efficient region: indices [%d,%d]\n",
		res.Hypervolume, res.Region.Lo, res.Region.Hi)

	if *dropBelow >= 0 {
		// The task-dropping extension, applied to the peak allocation.
		alloc := res.Allocations[res.Region.PeakIndex]
		before, err := fw.Evaluate(alloc)
		if err != nil {
			fatal(err)
		}
		droppedAlloc, after := sched.DropNegligible(fw.Evaluator(), alloc, *dropBelow)
		dropped := 0
		for _, m := range droppedAlloc.Machine {
			if m == sched.Dropped {
				dropped++
			}
		}
		fmt.Printf("\ntask dropping (threshold %.2f) on the peak allocation: %d tasks dropped\n", *dropBelow, dropped)
		fmt.Printf("  before: %.4f MJ, %.1f utility\n", before.Energy/1e6, before.Utility)
		fmt.Printf("  after:  %.4f MJ, %.1f utility\n", after.Energy/1e6, after.Utility)
	}

	if *machines {
		fmt.Println("\nper-machine breakdown of the efficient-region allocation:")
		if err := fw.Evaluator().WriteReport(os.Stdout, res.Allocations[res.Region.PeakIndex]); err != nil {
			fatal(err)
		}
	}
	if *ganttPath != "" {
		f, err := os.Create(*ganttPath)
		if err != nil {
			fatal(err)
		}
		if err := fw.Evaluator().WriteGanttCSV(f, res.Allocations[res.Region.PeakIndex]); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *ganttPath)
	}
	if *reportPath != "" {
		doc, err := report.Render(fw, res, report.Options{
			Title:       "Utility/Energy Trade-off Analysis: " + name,
			GeneratedAt: time.Now(),
		})
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*reportPath, []byte(doc), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *reportPath)
	}
	if *csvPath != "" {
		if err := writeCSV(*csvPath, res); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *csvPath)
	}
	if *svgPath != "" {
		chart := &plot.Chart{
			Title:  "utility vs energy trade-off: " + name,
			XLabel: "total energy consumed (MJ)",
			YLabel: "total utility earned",
			Series: []plot.Series{{Name: "pareto front"}},
		}
		for _, p := range res.Front {
			chart.Series[0].Points = append(chart.Series[0].Points, plot.Point{X: p.Energy / 1e6, Y: p.Utility})
		}
		if err := os.WriteFile(*svgPath, []byte(chart.SVG(800, 600)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *svgPath)
	}
	if *phaseProf {
		fmt.Println("\nphase profile:")
		if err := tel.PhaseTimer().WriteSummary(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if err := tel.Close(); err != nil {
		fatal(err)
	}
	if *tracePath != "" {
		fmt.Println("wrote", *tracePath)
	}
	if err := prof.Stop(); err != nil {
		fatal(err)
	}
	if *cpuProfile != "" {
		fmt.Println("wrote", *cpuProfile)
	}
	if *memProfile != "" {
		fmt.Println("wrote", *memProfile)
	}
}

func buildFramework(dataset int, systemFile string, tasks int, window float64, seed uint64) (*core.Framework, string, error) {
	if systemFile != "" {
		raw, err := os.ReadFile(systemFile)
		if err != nil {
			return nil, "", err
		}
		var sys hcs.System
		if err := json.Unmarshal(raw, &sys); err != nil {
			return nil, "", err
		}
		if tasks == 0 {
			tasks = 1000
		}
		if window == 0 {
			window = 900
		}
		tr, err := workload.Generate(&sys, workload.GenConfig{NumTasks: tasks, Window: window}, rng.NewStream(seed, 10))
		if err != nil {
			return nil, "", err
		}
		fw, err := core.New(&sys, tr)
		return fw, systemFile, err
	}
	ds, err := experiments.ByNumber(dataset, seed)
	if err != nil {
		return nil, "", err
	}
	if tasks != 0 || window != 0 {
		n := ds.Trace.NumTasks()
		if tasks != 0 {
			n = tasks
		}
		w := ds.Trace.Window
		if window != 0 {
			w = window
		}
		tr, err := workload.Generate(ds.System, workload.GenConfig{NumTasks: n, Window: w}, rng.NewStream(seed, 10))
		if err != nil {
			return nil, "", err
		}
		fw, err := core.New(ds.System, tr)
		return fw, ds.Name, err
	}
	fw, err := core.New(ds.System, ds.Trace)
	return fw, ds.Name, err
}

func parseCheckpoints(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -checkpoints %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseEpsilon(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -archive-eps %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseSeeds(s string) ([]heuristics.Heuristic, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	byName := map[string]heuristics.Heuristic{}
	for _, h := range heuristics.All {
		byName[h.String()] = h
	}
	var out []heuristics.Heuristic
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		h, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown seeding heuristic %q (have: min-energy, max-utility, max-utility-per-energy, min-min)", name)
		}
		out = append(out, h)
	}
	return out, nil
}

func writeCSV(path string, res *core.Result) error {
	var b strings.Builder
	b.WriteString("utility,energy_joules,energy_mj,upe_per_mj\n")
	for _, p := range res.Front {
		fmt.Fprintf(&b, "%.6f,%.6f,%.6f,%.6f\n", p.Utility, p.Energy, p.Energy/1e6, p.UPE()*1e6)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// telSession lets fatal flush a partially written trace before exiting;
// profSession likewise salvages any profile collected so far.
var (
	telSession  *telemetry.Session
	profSession *telemetry.Profiler
)

func fatal(err error) {
	telSession.Close()
	profSession.Stop()
	fmt.Fprintln(os.Stderr, "tradeoff:", err)
	os.Exit(1)
}
