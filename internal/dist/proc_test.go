//go:build unix

package dist

// Process-boundary tests: workers are this test binary re-executed via
// StartWorkers, inheriting their socket on fd WorkerFD exactly as the
// end-to-end benchmark's workers do. TestMain diverts re-executed copies into
// serveProcWorker before the test framework starts, so the parent test
// drives real child processes over real socketpairs.

import (
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"testing"

	"tradeoff/internal/moea"
	"tradeoff/internal/nsga2"
	"tradeoff/internal/obs"
	"tradeoff/internal/rng"
)

// Worker parameters cross the process boundary as environment
// variables; everything else is re-derived deterministically from them.
// A set WORKER variable is itself the worker-mode marker.
const procEnvPrefix = "TRADEOFF_DIST_PROC_"

func procEnv(k string) string {
	return os.Getenv(procEnvPrefix + k) //detlint:allow purity test-harness re-exec channel, set only by this file
}

func TestMain(m *testing.M) {
	if procEnv("WORKER") == "" {
		os.Exit(m.Run())
	}
	if err := serveProcWorker(); err != nil {
		fmt.Fprintln(os.Stderr, "dist proc worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// serveProcWorker is the child-process side: rebuild the evaluator and
// configuration from the environment, then serve the inherited socket.
func serveProcWorker() error {
	num := func(k string) int {
		v, err := strconv.Atoi(procEnv(k))
		if err != nil {
			panic(fmt.Sprintf("dist proc worker: bad %s%s: %v", procEnvPrefix, k, err))
		}
		return v
	}
	eval, err := buildEval(num("DATASET"), num("TASKS"))
	if err != nil {
		return err
	}
	sock := WorkerSocket()
	if sock == nil {
		return fmt.Errorf("no inherited socket on fd %d", WorkerFD)
	}
	return ServeWorker(sock, WorkerEnv{
		Worker:  num("WORKER"),
		Workers: num("WORKERS"),
		Eval:    eval,
		Config:  distCfg(num("ISLANDS"), num("INTERVAL"), num("MIGRANTS"), num("POP")),
		Seed:    uint64(num("SEED")),
	})
}

// procCluster is a distributed run over real worker processes.
type procCluster struct {
	coord *Coordinator
	procs []*Proc
}

func startProcCluster(t *testing.T, dataset, tasks int, cfg nsga2.IslandConfig, seed uint64,
	workers int, o obs.Observer) *procCluster {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	env := os.Environ() //detlint:allow purity test-harness re-exec channel, forwarded verbatim plus worker params
	for _, kv := range []struct {
		k string
		v int
	}{
		{"WORKERS", workers}, {"DATASET", dataset}, {"TASKS", tasks},
		{"ISLANDS", cfg.Islands}, {"INTERVAL", cfg.MigrationInterval},
		{"MIGRANTS", cfg.Migrants}, {"POP", cfg.Engine.PopulationSize},
		{"SEED", int(seed)},
	} {
		env = append(env, fmt.Sprintf("%s%s=%d", procEnvPrefix, kv.k, kv.v))
	}
	procs, err := StartWorkers(workers, nil, func(w int) *exec.Cmd {
		cmd := exec.Command(exe)
		cmd.Env = append(append([]string{}, env...), fmt.Sprintf("%sWORKER=%d", procEnvPrefix, w))
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		return cmd
	})
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]*Conn, len(procs))
	for i, p := range procs {
		conns[i] = p.Conn
	}
	coord, err := NewCoordinator(conns, CoordinatorConfig{
		Islands:           cfg.Islands,
		MigrationInterval: cfg.MigrationInterval,
		Migrants:          cfg.Migrants,
		PopulationSize:    cfg.Engine.PopulationSize,
		NumMachines:       0,
		Observer:          o,
	})
	if err != nil {
		for _, p := range procs {
			p.Conn.Close() //nolint:errcheck // teardown
			p.Kill()
			p.Wait() //nolint:errcheck // teardown
		}
		t.Fatal(err)
	}
	return &procCluster{coord: coord, procs: procs}
}

func (c *procCluster) stop(t *testing.T) {
	t.Helper()
	if err := c.coord.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	for w, p := range c.procs {
		if err := p.Wait(); err != nil {
			t.Errorf("worker process %d: %v", w, err)
		}
	}
}

// TestProcDistributedMatchesInProcess: across real process boundaries
// and every worker count, the distributed run must match the in-process
// run bit for bit — front genotypes and telemetry events.
func TestProcDistributedMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	const tasks, seed = 40, 99
	cfg := distCfg(4, 5, 2, 8)
	e := newEval(t, tasks)
	ref, err := nsga2.NewIslands(e, cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	refLog := &eventLog{}
	ref.SetObserver(refLog)
	ref.Run(13)
	refFront := ref.ParetoFront()

	for _, workers := range []int{1, 2, 4} {
		distLog := &eventLog{}
		cl := startProcCluster(t, 0, tasks, cfg, seed, workers, distLog)
		if err := cl.coord.Run(13); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		union, err := cl.coord.Front()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		cl.stop(t)
		if !sameIndividuals(nsga2.MergeFronts(moea.UtilityEnergySpace(), union), refFront) {
			t.Errorf("workers=%d: front differs from in-process run", workers)
		}
		if !reflect.DeepEqual(distLog.migs, refLog.migs) {
			t.Errorf("workers=%d: migration events differ", workers)
		}
	}
}

// TestProcDistributedDatasets: bit-identity holds on each paper data
// set's machine mix, not just the synthetic system.
func TestProcDistributedDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	const tasks, seed = 30, 7
	cfg := distCfg(3, 4, 1, 6)
	for dataset := 1; dataset <= 3; dataset++ {
		e, err := buildEval(dataset, tasks)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := nsga2.NewIslands(e, cfg, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		ref.Run(9)
		cl := startProcCluster(t, dataset, tasks, cfg, seed, 2, nil)
		if err := cl.coord.Run(9); err != nil {
			t.Fatalf("dataset %d: %v", dataset, err)
		}
		union, err := cl.coord.Front()
		if err != nil {
			t.Fatalf("dataset %d: %v", dataset, err)
		}
		cl.stop(t)
		if !sameIndividuals(nsga2.MergeFronts(moea.UtilityEnergySpace(), union), ref.ParetoFront()) {
			t.Errorf("dataset %d: front differs from in-process run", dataset)
		}
	}
}
