package main

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"time"

	"tradeoff/internal/analysis"
	"tradeoff/internal/core"
	"tradeoff/internal/dist"
	"tradeoff/internal/experiments"
	"tradeoff/internal/heuristics"
	"tradeoff/internal/moea"
	"tradeoff/internal/nsga2"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// instanceSeed builds every workload's problem instance: the data set
// the CLI builds with its default -seed 1. The benchmark seed drives
// only the optimizer's random stream, so the instance, and with it the
// generation-0 front that hv_ratio is measured from, is the same for
// every seed. Across instances hv_ratio ranges over 2.5-3.8 on data set
// 3; across optimizer seeds on one instance it moves by about 1%.
const instanceSeed = 1

// cliSeeds are the CLI's default seed heuristics, in its order.
var cliSeeds = []heuristics.Heuristic{
	heuristics.MinEnergy, heuristics.MinMin, heuristics.MaxUtility, heuristics.MaxUtilityPerEnergy,
}

// workload is one benchmark input: a problem instance, an engine
// configuration and a generation budget. What it does not name takes
// the CLI default: the four seed heuristics, the default caches and the
// typed kernel.
type workload struct {
	Name    string `json:"name"`
	Dataset int    `json:"dataset"` // paper data set 1-3; 0 selects a scale instance
	Tasks   int    `json:"tasks"`   // scale instance size
	Pop     int    `json:"pop"`     // population size, per island
	Islands int    `json:"islands"` // 0 runs one population
	// Interval is the number of generations between ring migrations.
	Interval int `json:"interval"`
	// Workers > 0 runs the islands asynchronously over that many worker
	// processes on the binary wire.
	Workers int `json:"workers"`
	// Archive > 0 compacts the returned front through an ε-archive.
	Archive int `json:"archive"`
	Gens    int `json:"gens"`
	// Chunk is the number of generations per stepping batch: one
	// Coordinator.Run call in a distributed run. A traced ring samples
	// its front after each chunk.
	Chunk int `json:"chunk"`
}

// workloads are the benchmark's inputs, in run order.
var workloads = []workload{
	{Name: "paper-ds3", Dataset: 3, Pop: 100, Gens: 400, Chunk: 10},
	{Name: "islands-ds1", Dataset: 1, Pop: 50, Islands: 4, Interval: 5, Gens: 3000, Chunk: 100},
	{Name: "islands-ds1-dist2", Dataset: 1, Pop: 50, Islands: 4, Interval: 5, Workers: 2, Gens: 3000, Chunk: 100},
	{Name: "scale-10k", Tasks: 10000, Pop: 100, Archive: 64, Gens: 100, Chunk: 5},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// dataset builds the workload's problem instance.
func (w workload) dataset() (*experiments.DataSet, error) {
	if w.Dataset > 0 {
		return experiments.ByNumber(w.Dataset, instanceSeed)
	}
	return experiments.ScaleDataSet(w.Tasks, 0, instanceSeed)
}

// options are the core.Options a CLI run of the workload would pass.
func (w workload) options(seed uint64) core.Options {
	return core.Options{
		Generations:       w.Gens,
		PopulationSize:    w.Pop,
		Seeds:             cliSeeds,
		RandomSeed:        seed,
		Islands:           w.Islands,
		MigrationInterval: w.Interval,
		AsyncIslands:      w.Workers > 0,
		ArchiveSize:       w.Archive,
	}
}

// islandConfig is the configuration core.Framework.IslandConfig derives
// from options, built from seed allocations the caller already holds.
func (w workload) islandConfig(seeds []*sched.Allocation) nsga2.IslandConfig {
	return nsga2.IslandConfig{
		Islands:           w.Islands,
		MigrationInterval: w.Interval,
		Async:             w.Workers > 0,
		Engine:            nsga2.Config{PopulationSize: w.Pop, Seeds: seeds},
	}
}

// repResult is what one rep reports to the parent process.
type repResult struct {
	Digest string `json:"digest"`
	// Problem names the first failed output check; empty when the
	// outputs are correct.
	Problem string             `json:"problem,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
	// StepsMS holds every generation's wall time in a traced rep.
	StepsMS []float64 `json:"steps_ms,omitempty"`
}

// stepper advances one workload's optimizer: a single engine, a ring of
// in-process islands, or a coordinator driving worker processes.
type stepper interface {
	// advance runs n generations, recording per-step spans under parent
	// when the tracer asks for them and the call exposes steps.
	advance(n int, tr *tracer, parent int) error
	// points returns the objective vectors of the current merged front.
	points() ([][]float64, error)
	// final returns the final rank-1 individuals and releases any
	// worker processes.
	final() ([]nsga2.Individual, error)
	// stop releases worker processes after a failure.
	stop()
}

// localOptimizer is what *nsga2.Engine and *nsga2.Islands share.
type localOptimizer interface {
	Step()
	FrontPoints() [][]float64
	ParetoFront() []nsga2.Individual
}

// localStepper steps an engine or an island ring in this process, one
// generation per Step.
type localStepper struct{ opt localOptimizer }

func (s localStepper) advance(n int, tr *tracer, parent int) error {
	for i := 0; i < n; i++ {
		id := tr.beginStep(parent)
		s.opt.Step()
		tr.end(id)
	}
	return nil
}

func (s localStepper) points() ([][]float64, error)       { return s.opt.FrontPoints(), nil }
func (s localStepper) final() ([]nsga2.Individual, error) { return s.opt.ParetoFront(), nil }
func (s localStepper) stop()                              {}

type distStepper struct {
	coord *dist.Coordinator
	procs []*dist.Proc
}

func (s *distStepper) advance(n int, _ *tracer, _ int) error { return s.coord.Run(n) }

func (s *distStepper) points() ([][]float64, error) {
	union, err := s.coord.Front()
	if err != nil {
		return nil, err
	}
	front := nsga2.MergeFronts(moea.UtilityEnergySpace(), union)
	pts := make([][]float64, len(front))
	for i, ind := range front {
		pts[i] = ind.Objectives
	}
	return pts, nil
}

// final collects the union of the worker fronts, shuts the workers
// down and merges the union, in the order the CLI's -distribute path
// does.
func (s *distStepper) final() ([]nsga2.Individual, error) {
	union, err := s.coord.Front()
	if err != nil {
		return nil, err
	}
	if err := s.coord.Close(); err != nil {
		return nil, err
	}
	procs := s.procs
	s.procs = nil
	for w, p := range procs {
		if err := p.Wait(); err != nil {
			return nil, fmt.Errorf("worker %d: %w", w, err)
		}
	}
	return nsga2.MergeFronts(moea.UtilityEnergySpace(), union), nil
}

func (s *distStepper) stop() {
	for _, p := range s.procs {
		p.Conn.Close() //nolint:errcheck // teardown after a failure
		p.Kill()
		p.Wait() //nolint:errcheck // teardown after a failure
	}
	s.procs = nil
}

// workerEnv carries a distributed worker's assignment across exec: the
// bench binary (or test binary) re-executed with it set serves one
// shard instead of running its own main.
const workerEnv = "TRADEOFF_BENCH_DIST_WORKER"

// workerSpec is everything a worker needs to rebuild the coordinator's
// evaluator and island configuration.
type workerSpec struct {
	Worker   int      `json:"worker"`
	Workload workload `json:"workload"`
	Seed     uint64   `json:"seed"`
}

// serveWorker runs this process as a distributed island worker, the
// way cmd/tradeoff's -island-worker mode does.
func serveWorker(spec workerSpec) error {
	w := spec.Workload
	ds, err := w.dataset()
	if err != nil {
		return err
	}
	fw, err := core.New(ds.System, ds.Trace)
	if err != nil {
		return err
	}
	cfg, err := fw.IslandConfig(w.options(spec.Seed))
	if err != nil {
		return err
	}
	if cfg, err = cfg.Normalized(); err != nil {
		return err
	}
	sock := dist.WorkerSocket()
	if sock == nil {
		return fmt.Errorf("no inherited socket on fd %d", dist.WorkerFD)
	}
	return dist.ServeWorker(sock, dist.WorkerEnv{
		Worker:  spec.Worker,
		Workers: w.Workers,
		Eval:    fw.Evaluator(),
		Config:  cfg,
		Seed:    spec.Seed,
	})
}

// start builds the workload's optimizer, recording setup spans under
// setup.
func (w workload) start(fw *core.Framework, seeds []*sched.Allocation, seed uint64, tr *tracer, setup int, lay *layers) (stepper, error) {
	switch {
	case w.Workers > 0:
		return w.startDist(fw, seeds, seed, tr, setup, lay)
	case w.Islands > 1:
		id := tr.begin("setup.engine", setup)
		is, err := nsga2.NewIslands(fw.Evaluator(), w.islandConfig(seeds), rng.New(seed))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		is.SetObserver(lay.observer())
		is.SetPhaseTimer(lay.phaseTimer())
		return localStepper{is}, nil
	default:
		id := tr.begin("setup.engine", setup)
		eng, err := nsga2.New(fw.Evaluator(), nsga2.Config{PopulationSize: w.Pop, Seeds: seeds}, rng.New(seed))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		eng.SetObserver(lay.observer())
		eng.SetPhaseTimer(lay.phaseTimer())
		return localStepper{eng}, nil
	}
}

// startDist forks the workers and completes the handshake: the
// distributed counterpart of engine construction.
func (w workload) startDist(fw *core.Framework, seeds []*sched.Allocation, seed uint64, tr *tracer, setup int, lay *layers) (stepper, error) {
	cfg, err := w.islandConfig(seeds).Normalized()
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	board := lay.distBoard(w.Workers)
	id := tr.begin("setup.spawn", setup)
	procs, err := dist.StartWorkers(w.Workers, board.AddBytes, func(worker int) *exec.Cmd {
		spec, _ := json.Marshal(workerSpec{Worker: worker, Workload: w, Seed: seed}) // a plain struct always encodes
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), workerEnv+"="+string(spec), "GOMAXPROCS=1")
		cmd.Stdout = os.Stderr // stdout carries the rep's result
		cmd.Stderr = os.Stderr
		return cmd
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	s := &distStepper{procs: procs}
	conns := make([]*dist.Conn, len(procs))
	for i, p := range procs {
		conns[i] = p.Conn
	}
	id = tr.begin("setup.handshake", setup)
	s.coord, err = dist.NewCoordinator(conns, dist.CoordinatorConfig{
		Islands:           cfg.Islands,
		MigrationInterval: cfg.MigrationInterval,
		Migrants:          cfg.Migrants,
		PopulationSize:    cfg.Engine.PopulationSize,
		NumMachines:       fw.Evaluator().NumMachines(),
		Observer:          lay.observer(),
		Board:             board,
	})
	tr.end(id)
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// runRep runs the workload once, end to end, in this process: data set,
// evaluator, seed heuristics, optimizer start-up, the generations, and
// the finished front. Every timing is taken around a public call. The
// outputs are checked afterwards, outside the timed spans.
func runRep(w workload, seed uint64, traced bool) (*repResult, *tracer, error) {
	tr := newTracer(traced)
	lay := newLayers(traced)
	run := tr.begin("run", 0)
	setup := tr.begin("setup", run)

	id := tr.begin("setup.dataset", setup)
	ds, err := w.dataset()
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin("setup.evaluator", setup)
	fw, err := core.New(ds.System, ds.Trace)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	seeds := make([]*sched.Allocation, 0, len(cliSeeds))
	for _, h := range cliSeeds {
		id = tr.begin("setup.heuristics."+h.String(), setup)
		a, err := fw.Seed(h)
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		seeds = append(seeds, a)
	}
	st, err := w.start(fw, seeds, seed, tr, setup, lay)
	if err != nil {
		return nil, nil, err
	}
	defer st.stop()
	tr.end(setup)

	// Front samples are benchmark work, not optimizer work: hv_sample
	// spans are taken out of wall_s and evolve_s. An untraced rep samples
	// only the generation-0 front, the base of hv_ratio. A traced rep
	// also follows the hypervolume through the run, for tt_target: per
	// generation through the observer's borrowed front on one engine,
	// per chunk for a ring, whose fronts are observable only by copying.
	evolve := tr.begin("evolve", run)
	sampleFront := func() ([][]float64, error) {
		id := tr.begin("hv_sample", evolve)
		defer tr.end(id)
		return lay.points(st)
	}
	sp := moea.UtilityEnergySpace()
	front0, err := sampleFront()
	if err != nil {
		return nil, nil, err
	}
	ref := sp.ReferenceFrom(0.05, front0)
	curve := []hvPoint{{0, sp.Hypervolume2D(front0, ref)}}
	lay.followFronts(ref)
	for gen := 0; gen < w.Gens; {
		n := min(w.Chunk, w.Gens-gen)
		id := tr.begin("chunk", evolve)
		err := st.advance(n, tr, id)
		tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		gen += n
		if traced && w.Islands > 1 {
			pts, err := sampleFront()
			if err != nil {
				return nil, nil, err
			}
			curve = append(curve, hvPoint{gen, sp.Hypervolume2D(pts, ref)})
		}
	}
	tr.end(evolve)

	opts := w.options(seed)
	opts.PhaseTimer = lay.phaseTimer()
	finish := tr.begin("finish", run)
	id = tr.begin("finish.front", finish)
	front, err := st.final()
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.begin("finish.core", finish)
	res, err := fw.FinishFront(front, opts)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	tr.end(finish)
	tr.end(run)
	lay.readRuntime()

	out := &repResult{Digest: frontDigest(res), Problem: checkFront(fw, res), Metrics: map[string]float64{}}
	sampling := tr.total("hv_sample")
	out.Metrics["setup_s"] = tr.total("setup").Seconds()
	out.Metrics["wall_s"] = (tr.total("run") - sampling).Seconds()
	out.Metrics["evolve_s"] = (tr.total("evolve") - sampling + tr.total("finish")).Seconds()
	final := analysis.ToObjectives(res.Front)
	out.Metrics["hv_ratio"] = sp.Hypervolume2D(final, ref) / curve[0].hv
	if traced {
		curve = append(curve, lay.curve()...)
		out.Metrics["nsga2.tt_target_s"] = ttTarget(curve, tr, w).Seconds()
		lay.report(out.Metrics, tr, w, fw, res, replayFronts{ref: ref, front0: front0, final: final})
		out.StepsMS = tr.stepsMS(w)
	}
	return out, tr, nil
}

// hvPoint is the front hypervolume after a number of generations.
type hvPoint struct {
	gen int
	hv  float64
}

// ttTarget is the stepping time until the front first closed 95% of
// the hypervolume gap between generation 0 and the end of the run.
func ttTarget(curve []hvPoint, tr *tracer, w workload) time.Duration {
	target := curve[0].hv + 0.95*(curve[len(curve)-1].hv-curve[0].hv)
	gen := w.Gens
	for _, p := range curve {
		if p.hv >= target {
			gen = p.gen
			break
		}
	}
	// Step spans give per-generation resolution; a distributed run has
	// chunk spans only, and samples only at chunk ends.
	name, per := "step", 1
	if tr.total("step") == 0 {
		name, per = "chunk", w.Chunk
	}
	var d time.Duration
	n := 0
	for _, s := range tr.spans {
		if s.Name == name && n < gen/per {
			d += time.Duration(s.End - s.Start)
			n++
		}
	}
	return d
}

// checkFront re-evaluates every returned allocation and checks the
// front's shape. It returns a description of the first violation, or
// "" when the front is correct.
func checkFront(fw *core.Framework, res *core.Result) string {
	if len(res.Front) == 0 || len(res.Front) != len(res.Allocations) {
		return fmt.Sprintf("front has %d points and %d allocations", len(res.Front), len(res.Allocations))
	}
	sp := moea.UtilityEnergySpace()
	for i, p := range res.Front {
		ev, err := fw.Evaluate(res.Allocations[i])
		if err != nil {
			return fmt.Sprintf("point %d: %v", i, err)
		}
		if ev.Utility != p.Utility || ev.Energy != p.Energy {
			return fmt.Sprintf("point %d reports (%v, %v), re-evaluates to (%v, %v)", i, p.Utility, p.Energy, ev.Utility, ev.Energy)
		}
		if i > 0 && !(p.Energy > res.Front[i-1].Energy) {
			return fmt.Sprintf("point %d is not sorted by energy", i)
		}
		for j := 0; j < i; j++ {
			a := []float64{p.Utility, p.Energy}
			b := []float64{res.Front[j].Utility, res.Front[j].Energy}
			if sp.Dominates(a, b) || sp.Dominates(b, a) {
				return fmt.Sprintf("points %d and %d dominate one another", j, i)
			}
		}
	}
	return ""
}

// frontDigest is the FNV-64a hash of the front's objective bits and of
// every allocation behind it, in front order.
func frontDigest(res *core.Result) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:]) //nolint:errcheck // hash writes cannot fail
	}
	for i, p := range res.Front {
		put(math.Float64bits(p.Utility))
		put(math.Float64bits(p.Energy))
		a := res.Allocations[i]
		for t := range a.Machine {
			put(uint64(uint32(a.Machine[t]))<<32 | uint64(uint32(a.Order[t])))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
