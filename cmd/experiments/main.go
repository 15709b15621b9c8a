// Command experiments regenerates every table and figure of the paper's
// evaluation section. Tables print verbatim; figure commands evolve the
// seeded NSGA-II populations and print the front series (and optionally
// render SVG charts).
//
// Usage:
//
//	experiments -table 1|2|3
//	experiments -figure 1|2|3|4|5|6 [-scale 0.1] [-pop 100] [-mutation 0.1] \
//	            [-seed 1] [-workers 0] [-svgdir DIR]
//	experiments -all [-scale 0.05]
//
// Figures 3, 4 and 6 run data sets 1, 2 and 3 respectively at laptop-
// scale default checkpoints; -paperscale switches to the paper's
// iteration counts (expect hours), -scale multiplies whichever schedule
// is active.
//
// -trace streams per-generation JSONL telemetry to a file (per-run
// records for -repeats) and -metrics-addr serves the run's metric
// registry as Prometheus text on /metrics; neither changes any result.
// -cpuprofile and -memprofile write pprof profiles of the whole
// invocation.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tradeoff/internal/experiments"
	"tradeoff/internal/obs"
	"tradeoff/internal/telemetry"
)

var (
	table       = flag.Int("table", 0, "print table 1-3 and exit")
	figure      = flag.Int("figure", 0, "reproduce figure 1-6")
	all         = flag.Bool("all", false, "reproduce every table and figure")
	scale       = flag.Float64("scale", 1, "multiply iteration checkpoints")
	pop         = flag.Int("pop", 100, "NSGA-II population size")
	mutation    = flag.Float64("mutation", 0.1, "per-offspring mutation probability")
	seed        = flag.Uint64("seed", 1, "random seed")
	workersN    = flag.Int("workers", 0, "evaluation workers per engine (0 = GOMAXPROCS; bit-identical)")
	paperScale  = flag.Bool("paperscale", false, "use the paper's iteration counts (slow)")
	svgDir      = flag.String("svgdir", "", "write SVG charts into this directory")
	matrices    = flag.Bool("matrices", false, "print the embedded real ETC/EPC matrices")
	convergence = flag.Int("convergence", 0, "run the hypervolume-convergence study on data set 1-3")
	baselines   = flag.Int("baselines", 0, "compare single-solution heuristics to the evolved front on data set 1-3")
	wssaCmp     = flag.Int("wssa", 0, "compare NSGA-II against weighted-sum simulated annealing on data set 1-3")
	mutSweep    = flag.Int("mutsweep", 0, "sweep mutation rates on data set 1-3")
	onlineStudy = flag.Int("online", 0, "offline-informs-online study on data set 1-3")
	hetero      = flag.Int("heterogeneity", 0, "heterogeneity-preservation study with N synthetic task types")
	ablation    = flag.Int("ablation", 0, "design-choice ablation on data set 1-3")
	repeats     = flag.Int("repeats", 0, "statistical repeats study on data set 1-3")
	runs        = flag.Int("runs", 5, "runs per variant for -repeats")
	tracePath   = flag.String("trace", "", "stream per-generation JSONL telemetry to this file")
	metricsAddr = flag.String("metrics-addr", "", "serve Prometheus-text metrics on this address (e.g. :9090)")
	phaseProf   = flag.Bool("phase-profile", false, "time the engines' generation phases and print a summary after the run")
	flightRec   = flag.Int("flight-recorder", 0, "retain the last N telemetry events for SIGUSR1/panic dumps (0 = off)")
	flightDump  = flag.String("flight-dump", "", "write flight-recorder dumps to this file (default stderr)")
	cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
)

func main() {
	flag.Parse()

	prof, err := telemetry.StartProfiler(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	profSession = prof

	// The wall clock enters here, at the command layer; internal packages
	// only ever see the injected obs.Clock.
	tel, err := telemetry.Setup(telemetry.Config{
		TracePath:      *tracePath,
		MetricsAddr:    *metricsAddr,
		PhaseProfile:   *phaseProf,
		FlightRecorder: *flightRec,
		Clock:          func() int64 { return time.Now().UnixNano() },
	})
	if err != nil {
		fatal(err)
	}
	telSession = tel
	if url := tel.MetricsURL(); url != "" {
		fmt.Println("serving metrics at", url)
	}
	if fr := tel.FlightRecorder(); fr != nil {
		stop := telemetry.WatchFlightSignal("experiments", fr, *flightDump)
		defer stop()
		defer func() {
			if r := recover(); r != nil {
				telemetry.DumpFlight("experiments", fr, *flightDump, "panic")
				panic(r)
			}
		}()
	}
	dispatch(tel.Observer(), tel.PhaseTimer())
	if pt := tel.PhaseTimer(); pt != nil {
		fmt.Println("\nphase profile:")
		if err := pt.WriteSummary(os.Stdout); err != nil {
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

func dispatch(observer obs.Observer, phase *obs.PhaseTimer) {
	baseCfg := experiments.RunConfig{
		PopulationSize: *pop,
		MutationRate:   *mutation,
		Scale:          *scale,
		Seed:           *seed,
		Workers:        *workersN,
		Observer:       observer,
		PhaseTimer:     phase,
	}

	if *matrices {
		experiments.WriteMatrices(os.Stdout)
		return
	}
	if *convergence != 0 {
		ds, err := experiments.ByNumber(*convergence, *seed)
		if err != nil {
			fatal(err)
		}
		res, err := experiments.RunConvergence(ds, baseCfg)
		if err != nil {
			fatal(err)
		}
		res.Write(os.Stdout)
		return
	}
	if *baselines != 0 {
		ds, err := experiments.ByNumber(*baselines, *seed)
		if err != nil {
			fatal(err)
		}
		res, err := experiments.RunBaselineComparison(ds, baseCfg)
		if err != nil {
			fatal(err)
		}
		res.Write(os.Stdout)
		return
	}
	if *repeats != 0 {
		ds, err := experiments.ByNumber(*repeats, *seed)
		if err != nil {
			fatal(err)
		}
		res, err := experiments.RunRepeats(ds, baseCfg, *runs)
		if err != nil {
			fatal(err)
		}
		res.Write(os.Stdout)
		return
	}
	if *ablation != 0 {
		ds, err := experiments.ByNumber(*ablation, *seed)
		if err != nil {
			fatal(err)
		}
		res, err := experiments.RunAblation(ds, baseCfg)
		if err != nil {
			fatal(err)
		}
		res.Write(os.Stdout)
		return
	}
	if *hetero != 0 {
		res, err := experiments.RunHeterogeneityStudy(*hetero, *seed)
		if err != nil {
			fatal(err)
		}
		res.Write(os.Stdout)
		return
	}
	if *onlineStudy != 0 {
		ds, err := experiments.ByNumber(*onlineStudy, *seed)
		if err != nil {
			fatal(err)
		}
		res, err := experiments.RunOnlineStudy(ds, baseCfg)
		if err != nil {
			fatal(err)
		}
		res.Write(os.Stdout)
		return
	}
	if *mutSweep != 0 {
		ds, err := experiments.ByNumber(*mutSweep, *seed)
		if err != nil {
			fatal(err)
		}
		res, err := experiments.RunMutationSweep(ds, baseCfg, nil)
		if err != nil {
			fatal(err)
		}
		res.Write(os.Stdout)
		return
	}
	if *wssaCmp != 0 {
		ds, err := experiments.ByNumber(*wssaCmp, *seed)
		if err != nil {
			fatal(err)
		}
		res, err := experiments.RunWSSAComparison(ds, baseCfg, nil)
		if err != nil {
			fatal(err)
		}
		res.Write(os.Stdout)
		return
	}
	if *table != 0 {
		if err := printTable(*table); err != nil {
			fatal(err)
		}
		return
	}
	run := func(fig int) error {
		return runFigure(fig, baseCfg, *paperScale, *svgDir)
	}
	switch {
	case *all:
		for tn := 1; tn <= 3; tn++ {
			if err := printTable(tn); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
		for fig := 1; fig <= 6; fig++ {
			if err := run(fig); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
	case *figure != 0:
		if err := run(*figure); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func printTable(n int) error {
	switch n {
	case 1:
		experiments.WriteTableI(os.Stdout)
	case 2:
		experiments.WriteTableII(os.Stdout)
	case 3:
		experiments.WriteTableIII(os.Stdout)
	default:
		return fmt.Errorf("no table %d (want 1-3)", n)
	}
	return nil
}

func runFigure(fig int, baseCfg experiments.RunConfig, paperScale bool, svgDir string) error {
	switch fig {
	case 1:
		experiments.WriteFigure1(os.Stdout)
		return nil
	case 2:
		experiments.WriteFigure2(os.Stdout)
		return nil
	case 3, 4, 6:
		dsNum := map[int]int{3: 1, 4: 2, 6: 3}[fig]
		ds, err := experiments.ByNumber(dsNum, baseCfg.Seed)
		if err != nil {
			return err
		}
		cfg := baseCfg
		if paperScale {
			cfg.Checkpoints = ds.PaperCheckpoints
		}
		fmt.Printf("Figure %d: Pareto fronts for %s (%s)\n", fig, ds.Name, ds.Description)
		res, err := experiments.RunParetoFigure(ds, cfg)
		if err != nil {
			return err
		}
		if err := res.WriteSeries(os.Stdout); err != nil {
			return err
		}
		// ASCII chart of the final checkpoint.
		chart, err := res.Chart(len(res.Checkpoints) - 1)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(chart.ASCII(76, 20))
		if svgDir != "" {
			for k := range res.Checkpoints {
				c, err := res.Chart(k)
				if err != nil {
					return err
				}
				name := filepath.Join(svgDir, fmt.Sprintf("figure%d_cp%d.svg", fig, res.Checkpoints[k]))
				if err := os.WriteFile(name, []byte(c.SVG(800, 600)), 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", name)
			}
		}
		return nil
	case 5:
		ds, err := experiments.ByNumber(2, baseCfg.Seed)
		if err != nil {
			return err
		}
		cfg := baseCfg
		if paperScale {
			cfg.Checkpoints = ds.PaperCheckpoints
		}
		res, err := experiments.RunFigure5(ds, cfg)
		if err != nil {
			return err
		}
		res.WriteFigure5(os.Stdout)
		return nil
	default:
		return fmt.Errorf("no figure %d (want 1-6)", fig)
	}
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
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
