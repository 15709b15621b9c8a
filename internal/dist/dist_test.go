package dist

import (
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tradeoff/internal/data"
	"tradeoff/internal/experiments"
	"tradeoff/internal/moea"
	"tradeoff/internal/nsga2"
	"tradeoff/internal/obs"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
	"tradeoff/internal/workload"
)

// buildEval constructs the shared test problem: dataset 0 is the
// synthetic system, 1-3 the paper's data sets, each with an n-task
// trace from a fixed generation seed. Worker processes rebuild the same
// evaluator from the same numbers (see proc_test.go).
func buildEval(dataset, n int) (*sched.Evaluator, error) {
	sys := data.RealSystem()
	if dataset > 0 {
		ds, err := experiments.ByNumber(dataset, 21)
		if err != nil {
			return nil, err
		}
		sys = ds.System
	}
	tr, err := workload.Generate(sys, workload.GenConfig{NumTasks: n, Window: 900}, rng.New(21))
	if err != nil {
		return nil, err
	}
	return sched.NewEvaluator(sys, tr)
}

func newEval(t testing.TB, n int) *sched.Evaluator {
	t.Helper()
	e, err := buildEval(0, n)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func distCfg(islands, interval, migrants, pop int) nsga2.IslandConfig {
	return nsga2.IslandConfig{
		Islands:           islands,
		MigrationInterval: interval,
		Migrants:          migrants,
		Engine:            nsga2.Config{PopulationSize: pop, Workers: 2},
	}
}

// eventLog records a telemetry stream for bit-exact comparison. All
// emitters here serialize events from a single goroutine.
type eventLog struct {
	gens []obs.GenerationStats
	migs []obs.MigrationEvent
}

func (l *eventLog) ObserveGeneration(g obs.GenerationStats) { l.gens = append(l.gens, g) }
func (l *eventLog) ObserveMigration(m obs.MigrationEvent)   { l.migs = append(l.migs, m) }
func (l *eventLog) ObserveRun(obs.RunEvent)                 {}

// cluster is an in-process distributed run: workers served over
// net.Pipe, which has zero buffering — the harshest transport for the
// deadlock-freedom argument.
type cluster struct {
	coord *Coordinator
	wg    sync.WaitGroup
	errs  []error
}

func startCluster(t testing.TB, e *sched.Evaluator, cfg nsga2.IslandConfig, seed uint64,
	workers int, o obs.Observer, board *obs.DistBoard) *cluster {
	t.Helper()
	c := &cluster{errs: make([]error, workers)}
	conns := make([]*Conn, workers)
	for w := 0; w < workers; w++ {
		parent, child := net.Pipe()
		conns[w] = NewConn(parent, board.AddBytes)
		c.wg.Add(1)
		go func(w int, child net.Conn) {
			defer c.wg.Done()
			c.errs[w] = ServeWorker(child, WorkerEnv{
				Worker: w, Workers: workers, Eval: e, Config: cfg, Seed: seed,
			})
		}(w, child)
	}
	coord, err := NewCoordinator(conns, CoordinatorConfig{
		Islands:           cfg.Islands,
		MigrationInterval: cfg.MigrationInterval,
		Migrants:          cfg.Migrants,
		PopulationSize:    cfg.Engine.PopulationSize,
		NumMachines:       e.NumMachines(),
		Observer:          o,
		Board:             board,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.coord = coord
	return c
}

// stop shuts the cluster down and fails the test on any worker error.
func (c *cluster) stop(t testing.TB) {
	t.Helper()
	if err := c.coord.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	c.wg.Wait()
	for w, err := range c.errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
}

func sameIndividuals(a, b []nsga2.Individual) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Objectives, b[i].Objectives) ||
			!reflect.DeepEqual(a[i].Alloc.Machine, b[i].Alloc.Machine) ||
			!reflect.DeepEqual(a[i].Alloc.Order, b[i].Alloc.Order) {
			return false
		}
	}
	return true
}

// TestDistributedMatchesInProcess: for every worker count, a
// distributed run must be bit-identical to the in-process run —
// merged front (with genotypes), migration-event sequence, and
// aggregated islands stats — across multiple Run calls.
func TestDistributedMatchesInProcess(t *testing.T) {
	e := newEval(t, 40)
	cfg := distCfg(4, 5, 2, 8)
	const seed = 99
	space := moea.UtilityEnergySpace()

	ref, err := nsga2.NewIslands(e, cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	refLog := &eventLog{}
	ref.SetObserver(refLog)
	ref.Run(7)
	ref.Run(6)
	refFront := ref.ParetoFront()

	for _, workers := range []int{1, 2, 3, 4} {
		distLog := &eventLog{}
		cl := startCluster(t, e, cfg, seed, workers, distLog, nil)
		if err := cl.coord.Run(7); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := cl.coord.Run(6); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := cl.coord.Generation(); got != 13 {
			t.Fatalf("workers=%d: generation %d, want 13", workers, got)
		}
		union, err := cl.coord.Front()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		front := nsga2.MergeFronts(space, union)
		if !sameIndividuals(front, refFront) {
			t.Errorf("workers=%d: merged front differs from in-process run", workers)
		}
		if !reflect.DeepEqual(distLog.migs, refLog.migs) {
			t.Errorf("workers=%d: migration events differ\n got %+v\nwant %+v", workers, distLog.migs, refLog.migs)
		}
		if !reflect.DeepEqual(distLog.gens, refLog.gens) {
			t.Errorf("workers=%d: islands stats differ\n got %+v\nwant %+v", workers, distLog.gens, refLog.gens)
		}
		cl.stop(t)
	}
}

// TestDistributedSnapshotHandoff proves resume across the process
// boundary in both directions: distributed → in-process and
// in-process → distributed must both land exactly where the unbroken
// in-process run lands.
func TestDistributedSnapshotHandoff(t *testing.T) {
	e := newEval(t, 40)
	cfg := distCfg(4, 5, 2, 8)
	const seed, pause, total = 7, 7, 18

	full, err := nsga2.NewIslands(e, cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	full.Run(total)
	wantFront := full.ParetoFront()

	// Distributed start, in-process finish.
	cl := startCluster(t, e, cfg, seed, 2, nil, nil)
	if err := cl.coord.Run(pause); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.coord.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cl.stop(t)
	if snap.Generation != pause {
		t.Fatalf("snapshot at generation %d, want %d", snap.Generation, pause)
	}
	resumed, err := nsga2.NewIslands(e, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	resumed.Run(total - pause)
	if !sameIndividuals(resumed.ParetoFront(), wantFront) {
		t.Error("distributed → in-process resume diverged from the unbroken run")
	}

	// In-process start, distributed finish.
	head, err := nsga2.NewIslands(e, cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	head.Run(pause)
	cl = startCluster(t, e, cfg, 1, 3, nil, nil)
	if err := cl.coord.Restore(head.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := cl.coord.Run(total - pause); err != nil {
		t.Fatal(err)
	}
	union, err := cl.coord.Front()
	if err != nil {
		t.Fatal(err)
	}
	cl.stop(t)
	front := nsga2.MergeFronts(moea.UtilityEnergySpace(), union)
	if !sameIndividuals(front, wantFront) {
		t.Error("in-process → distributed resume diverged from the unbroken run")
	}
}

// TestDistributedRestoredTelemetry: a restored distributed run must
// resync its stats baselines, emitting the same tail of events an
// in-process run restored at the same point emits.
func TestDistributedRestoredTelemetry(t *testing.T) {
	e := newEval(t, 30)
	cfg := distCfg(3, 4, 1, 6)
	const seed, pause, total = 5, 6, 14

	head, err := nsga2.NewIslands(e, cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	head.Run(pause)
	snap := head.Snapshot()

	refResumed, err := nsga2.NewIslands(e, cfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := refResumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	refLog := &eventLog{}
	refResumed.SetObserver(refLog)
	refResumed.Run(total - pause)

	// Same construction seed as the reference: engine arenas survive
	// Restore, so post-resume arena occupancy depends on the pre-restore
	// initial populations (which a real run derives from the same -seed).
	distLog := &eventLog{}
	cl := startCluster(t, e, cfg, 2, 2, distLog, nil)
	if err := cl.coord.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := cl.coord.Run(total - pause); err != nil {
		t.Fatal(err)
	}
	cl.stop(t)
	if !reflect.DeepEqual(distLog.migs, refLog.migs) {
		t.Errorf("migration events differ\n got %+v\nwant %+v", distLog.migs, refLog.migs)
	}
	if !reflect.DeepEqual(distLog.gens, refLog.gens) {
		t.Errorf("islands stats differ\n got %+v\nwant %+v", distLog.gens, refLog.gens)
	}
}

// TestDistBoardCounters: the wire observability hooks must see traffic.
func TestDistBoardCounters(t *testing.T) {
	e := newEval(t, 30)
	cfg := distCfg(4, 3, 2, 6)
	board := obs.NewDistBoard(obs.NewRegistry(), 2)
	cl := startCluster(t, e, cfg, 11, 2, nil, board)
	if err := cl.coord.Run(6); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.coord.Front(); err != nil {
		t.Fatal(err)
	}
	cl.stop(t)
	if board.WireBytes() == 0 {
		t.Error("no wire bytes counted")
	}
	// 2 hellos + 2 migration ticks × 2 boundary edges + 2 front replies.
	if got := board.Roundtrips(); got < 8 {
		t.Errorf("roundtrips %d, want >= 8", got)
	}
}

// TestDistHandshakeValidation: a geometry mismatch between coordinator
// and workers must fail the handshake.
func TestDistHandshakeValidation(t *testing.T) {
	e := newEval(t, 30)
	cfg := distCfg(4, 5, 2, 6)
	conns := make([]*Conn, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		parent, child := net.Pipe()
		conns[w] = NewConn(parent, nil)
		wg.Add(1)
		go func(w int, child net.Conn) {
			defer wg.Done()
			ServeWorker(child, WorkerEnv{Worker: w, Workers: 2, Eval: e, Config: cfg, Seed: 1}) //nolint:errcheck // abandoned by the failing handshake
		}(w, child)
	}
	_, err := NewCoordinator(conns, CoordinatorConfig{
		Islands: 5, MigrationInterval: 5, Migrants: 2, PopulationSize: 6, NumMachines: e.NumMachines(),
	})
	if err == nil || !strings.Contains(err.Error(), "islands") {
		t.Fatalf("err %v, want island-count mismatch", err)
	}
	for _, c := range conns {
		c.Close() //nolint:errcheck // teardown
	}
	wg.Wait()
}

// TestDistWorkerAbortSurfaces: a worker-side failure travels to the
// coordinator as a structured abort carrying the worker's message.
func TestDistWorkerAbortSurfaces(t *testing.T) {
	e := newEval(t, 30)
	parent, child := net.Pipe()
	done := make(chan error, 1)
	go func() {
		// 1 island across 2 workers cannot shard.
		done <- ServeWorker(child, WorkerEnv{Worker: 0, Workers: 2, Eval: e, Config: distCfg(1, 5, 2, 6), Seed: 1})
	}()
	_, err := NewCoordinator([]*Conn{NewConn(parent, nil)}, CoordinatorConfig{
		Islands: 1, MigrationInterval: 5, Migrants: 2, PopulationSize: 6, NumMachines: e.NumMachines(),
	})
	if err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("err %v, want worker abort", err)
	}
	if werr := <-done; werr == nil {
		t.Fatal("worker returned nil, want shard error")
	}
	parent.Close() //nolint:errcheck // teardown
}
