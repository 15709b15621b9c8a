package main

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"tradeoff/internal/core"
	"tradeoff/internal/dist"
	"tradeoff/internal/moea"
	"tradeoff/internal/obs"
	"tradeoff/internal/utility"
)

// layers collects a traced rep's per-layer measurements: the engine's
// phase timer, bench-side observer counts, the wire board, Go runtime
// counters and replays of single layers on the run's own outputs. An
// untraced rep holds a nil *layers, whose accessors hand out nil
// instruments, so the optimizer then runs uninstrumented.
type layers struct {
	timer   *obs.PhaseTimer
	count   *counter
	board   *obs.DistBoard
	runtime []metrics.Sample
	// sampledBytes and sampledTrips are the wire traffic of the
	// benchmark's own front samples, kept out of the dist counts.
	sampledBytes, sampledTrips uint64
}

func newLayers(traced bool) *layers {
	if !traced {
		return nil
	}
	return &layers{
		timer: obs.NewPhaseTimer(func() int64 { return time.Now().UnixNano() }),
		count: &counter{},
	}
}

func (l *layers) observer() obs.Observer {
	if l == nil {
		return nil
	}
	return l.count
}

func (l *layers) phaseTimer() *obs.PhaseTimer {
	if l == nil {
		return nil
	}
	return l.timer
}

func (l *layers) distBoard(workers int) *obs.DistBoard {
	if l == nil {
		return nil
	}
	l.board = obs.NewDistBoard(obs.NewRegistry(), workers)
	return l.board
}

// points samples the current front, keeping the wire traffic the sample
// causes out of the distributed run's counts.
func (l *layers) points(st stepper) ([][]float64, error) {
	if l == nil {
		return st.points()
	}
	bytes0, trips0 := l.board.WireBytes(), l.board.Roundtrips()
	pts, err := st.points()
	l.sampledBytes += l.board.WireBytes() - bytes0
	l.sampledTrips += l.board.Roundtrips() - trips0
	return pts, err
}

// followFronts makes the observer record the hypervolume of every
// observed generation's front against ref. Only a single engine
// reports its front per generation.
func (l *layers) followFronts(ref []float64) {
	if l != nil {
		l.count.ref = ref
	}
}

func (l *layers) curve() []hvPoint { return l.count.curve }

// readRuntime snapshots the Go runtime counters at the end of the run
// span, before any replay adds to them.
func (l *layers) readRuntime() {
	if l == nil {
		return
	}
	l.runtime = []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(l.runtime)
}

// counter is the bench-side observer: it sums the engine's evaluation
// and cache counters over every stepped generation (per generation for
// one engine, per migration tick for an island ring).
type counter struct {
	full, delta, hits, misses         int
	simulated, inherited              int
	typedTasks, typedRuns             int
	machineHits, machineMisses, edges int
	ref                               []float64
	curve                             []hvPoint
}

func (c *counter) ObserveGeneration(g obs.GenerationStats) {
	if c.ref != nil && len(g.Front) > 0 {
		c.curve = append(c.curve, hvPoint{g.Generation, moea.UtilityEnergySpace().Hypervolume2D(g.Front, c.ref)})
	}
	c.full += g.FullEvals
	c.delta += g.DeltaEvals
	c.hits += g.CacheHits
	c.misses += g.CacheMisses
	c.simulated += g.MachinesSimulated
	c.inherited += g.MachinesInherited
	c.typedTasks += g.TypedTasks
	c.typedRuns += g.TypedRuns
	c.machineHits += g.MachineCacheHits
	c.machineMisses += g.MachineCacheMisses
}

func (c *counter) ObserveMigration(obs.MigrationEvent) { c.edges++ }

func (c *counter) ObserveRun(obs.RunEvent) {}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b int) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// report adds the per-layer metrics of a traced rep to m.
func (l *layers) report(m map[string]float64, tr *tracer, w workload, fw *core.Framework, res *core.Result, fronts replayFronts) {
	m["experiments.dataset_s"] = tr.total("setup.dataset").Seconds()
	m["sched.new_evaluator_s"] = tr.total("setup.evaluator").Seconds()
	for _, h := range cliSeeds {
		m["heuristics."+h.String()+"_s"] = tr.total("setup.heuristics." + h.String()).Seconds()
	}
	// Engine start-up: nsga2.New or NewIslands in process; for a
	// distributed run, forking the workers plus the handshake, which
	// waits for each worker to build its data set, seeds and shard.
	m["nsga2.new_s"] = (tr.total("setup.engine") + tr.total("setup.spawn") + tr.total("setup.handshake")).Seconds()
	m["dist.spawn_s"] = tr.total("setup.spawn").Seconds()
	m["core.finish_ms"] = float64(tr.total("finish.core")) / 1e6
	m["trace.residual_frac"] = tr.residual()

	if w.Workers == 0 {
		// Worker engines live in other processes; a distributed run takes
		// its phase split from its in-process reference rep.
		tot := l.timer.Totals()
		var engine time.Duration
		for p := obs.Phase(0); int(p) < obs.NumPhases; p++ {
			d := time.Duration(tot[p])
			m["nsga2.phase."+p.String()+"_s"] = d.Seconds()
			if p != obs.PhaseArchive && p != obs.PhaseMigration {
				engine += d
			}
		}
		// Island engines share the cores inside one Islands.Step: their
		// phases spread over min(islands, GOMAXPROCS) cores, plus the
		// serial migration, are what a step's wall time should cover. The
		// rest is barrier wait and unattributed time.
		k := time.Duration(min(max(1, w.Islands), runtime.GOMAXPROCS(0)))
		covered := engine/k + time.Duration(tot[obs.PhaseMigration])
		m["nsga2.phase_residual_frac"] = 1 - covered.Seconds()/tr.total("step").Seconds()
	}

	c := l.count
	m["nsga2.evals_full"] = float64(c.full)
	m["nsga2.evals_delta"] = float64(c.delta)
	m["nsga2.cache_hit_ratio"] = ratio(c.hits, c.misses)
	m["sched.machines_simulated"] = float64(c.simulated)
	m["sched.machines_inherited"] = float64(c.inherited)
	m["sched.inherit_ratio"] = ratio(c.inherited, c.simulated)
	m["sched.mcache_hit_ratio"] = ratio(c.machineHits, c.machineMisses)
	m["sched.typed_compression"] = 0
	if c.typedRuns > 0 {
		m["sched.typed_compression"] = float64(c.typedTasks) / float64(c.typedRuns)
	}
	m["nsga2.islands.migrations"] = float64(c.edges)
	m["dist.wire_bytes"] = float64(l.board.WireBytes() - l.sampledBytes)
	m["dist.roundtrips"] = float64(l.board.Roundtrips() - l.sampledTrips)

	m["go.alloc_mb"] = float64(l.runtime[0].Value.Uint64()) / (1 << 20)
	m["go.gc_cycles"] = float64(l.runtime[1].Value.Uint64())
	m["go.gc_pause_ms"] = histogramSum(l.runtime[2].Value.Float64Histogram()) * 1e3

	replay(m, w, fw, res, fronts)
}

// histogramSum approximates a histogram's total from bucket midpoints
// (the lower bound for the unbounded last bucket).
func histogramSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		v := (lo + hi) / 2
		switch {
		case math.IsInf(hi, 1):
			v = lo
		case math.IsInf(lo, -1):
			v = hi
		}
		sum += float64(n) * v
	}
	return sum
}

// sink keeps replayed results alive so the compiler cannot drop the
// calls being timed.
var sink float64

// perCall runs fn, which makes calls calls, until at least 20 ms have
// passed and returns the mean nanoseconds per call.
func perCall(calls int, fn func()) float64 {
	t0 := time.Now()
	n := 0
	for n == 0 || time.Since(t0) < 20*time.Millisecond {
		fn()
		n += calls
	}
	return float64(time.Since(t0)) / float64(n)
}

// discard is a wire transport that drops every byte written.
type discard struct{}

func (discard) Read([]byte) (int, error)    { return 0, io.EOF }
func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) Close() error                { return nil }

// buffered is a wire transport writing into a buffer.
type buffered struct{ *bytes.Buffer }

func (buffered) Close() error { return nil }

// replayFronts are the objective vectors the replays rank and measure:
// the generation-0 and final fronts and the hypervolume reference point.
type replayFronts struct {
	ref           []float64
	front0, final [][]float64
}

// replay times single layers on the rep's own outputs, after the run:
// the evaluation kernel and the TUF table on the returned allocations,
// ranking and hypervolume on the fronts, and the wire codec on the
// front's first individuals, which are what a migration carries.
func replay(m map[string]float64, w workload, fw *core.Framework, res *core.Result, fronts replayFronts) {
	ev := fw.Evaluator()
	sess := ev.NewDeltaSession()
	dst := ev.NewContribs()
	ns := perCall(len(res.Allocations), func() {
		for _, a := range res.Allocations {
			sink += sess.EvaluateFull(a, dst).Utility
		}
	})
	m["sched.eval_full_us"] = ns / 1e3
	m["sched.eval_ns_per_task"] = ns / float64(ev.NumTasks())

	tasks := fw.Trace().Tasks
	table := utility.NewTable(len(tasks), 0)
	for i := range tasks {
		if _, err := table.Add(tasks[i].TUF); err != nil {
			panic(err) // the evaluator compiled these same functions
		}
	}
	done, _ := ev.NewSession().CompletionTimes(res.Allocations[res.Region.PeakIndex])
	var ids []int
	var elapsed []float64
	for i, t := range done {
		if t >= 0 {
			ids = append(ids, i)
			elapsed = append(elapsed, t-tasks[i].Arrival)
		}
	}
	m["utility.value_ns"] = perCall(len(ids), func() {
		for k, id := range ids {
			sink += table.Value(id, elapsed[k])
		}
	})

	// A survivor sort ranks 2N points over several fronts: here the final
	// front, a copy of it worsened by 1% in both objectives, and the
	// generation-0 front.
	sp := moea.UtilityEnergySpace()
	pts := append([][]float64(nil), fronts.final...)
	for _, p := range fronts.final {
		pts = append(pts, []float64{p[0] * 0.99, p[1] * 1.01})
	}
	pts = append(pts, fronts.front0...)
	pts = pts[:min(len(pts), 2*w.Pop)]
	ranker := moea.NewRanker()
	m["moea.rank_us"] = perCall(1, func() {
		for _, f := range ranker.Fronts(sp, pts) {
			sink += ranker.Crowding(sp, pts, f)[0]
		}
	}) / 1e3
	m["moea.hv_us"] = perCall(1, func() { sink += sp.Hypervolume2D(fronts.final, fronts.ref) }) / 1e3

	elites := dist.WireElites{}
	for i := 0; i < min(2, len(res.Front)); i++ {
		a := res.Allocations[i]
		elites.Inds = append(elites.Inds, dist.WireIndividual{
			Machine: a.Machine, Order: a.Order, Objectives: fronts.final[i],
		})
	}
	out := dist.NewConn(discard{}, nil)
	m["dist.encode_elites_ns"] = perCall(1, func() {
		if err := out.SendElites(&elites); err != nil {
			panic(err) // writes to discard cannot fail
		}
	})
	var buf bytes.Buffer
	if err := dist.NewConn(buffered{&buf}, nil).SendElites(&elites); err != nil {
		panic(err) // writes to a buffer cannot fail
	}
	_, payload, err := dist.NewDecoder(&buf, nil).Next()
	if err != nil {
		panic(err) // the frame was just encoded
	}
	m["dist.decode_elites_ns"] = perCall(1, func() {
		if _, err := dist.DecodeElites(payload); err != nil {
			panic(err)
		}
	})
}
