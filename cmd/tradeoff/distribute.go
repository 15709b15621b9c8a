// Distributed island mode: -distribute N forks N copies of this binary
// in worker mode (-island-worker W), each owning a contiguous shard of
// the island ring and stepping on the same logical-clock schedule the
// in-process model uses. Boundary migrations travel over per-worker
// socketpairs as fixed-width binary frames (internal/dist), so the
// distributed run is bit-identical to -islands N in one process: same
// fronts, same migration-event sequence, same snapshots.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"

	"tradeoff/internal/core"
	"tradeoff/internal/dist"
	"tradeoff/internal/moea"
	"tradeoff/internal/nsga2"
	"tradeoff/internal/telemetry"
)

// serveIslandWorker runs the process as distributed island worker
// `worker`: it rebuilds the same evaluator and island configuration the
// parent derived from the shared command line (both processes parse the
// identical argv, so the shard is reproducible without shipping it),
// then serves its shard over the socket inherited on fd dist.WorkerFD
// until the parent sends Exit.
func serveIslandWorker(fw *core.Framework, opts core.Options, worker, workers int, tel *telemetry.Session) error {
	if worker >= workers {
		return fmt.Errorf("-island-worker %d needs -distribute > %d", worker, worker)
	}
	cfg, err := fw.IslandConfig(opts)
	if err != nil {
		return err
	}
	// ServeWorker reads migration geometry straight off the config, so
	// hand it the same normalized form the parent's coordinator uses.
	cfg, err = cfg.Normalized()
	if err != nil {
		return err
	}
	sock := dist.WorkerSocket()
	if sock == nil {
		return fmt.Errorf("distributed islands need a unix platform (no inherited socket on fd %d)", dist.WorkerFD)
	}
	return dist.ServeWorker(sock, dist.WorkerEnv{
		Worker:   worker,
		Workers:  workers,
		Eval:     fw.Evaluator(),
		Config:   cfg,
		Seed:     opts.RandomSeed,
		Observer: tel.Observer(),
	})
}

// runDistributed forks `workers` copies of this binary in worker mode
// (re-execing os.Args plus -island-worker), drives them through the
// wire coordinator, and assembles the same Result the in-process
// island model produces.
func runDistributed(fw *core.Framework, opts core.Options, workers int, tel *telemetry.Session) (*core.Result, error) {
	cfg, err := fw.IslandConfig(opts)
	if err != nil {
		return nil, err
	}
	ncfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	if ncfg.Islands < workers {
		return nil, fmt.Errorf("-distribute %d needs at least that many islands (have -islands %d)", workers, ncfg.Islands)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	procs, err := dist.StartWorkers(workers, nil, func(w int) *exec.Cmd {
		args := append(append([]string{}, os.Args[1:]...), "-island-worker", strconv.Itoa(w))
		cmd := exec.Command(exe, args...)
		cmd.Stdout = os.Stderr // the parent owns stdout; worker prints go to stderr
		cmd.Stderr = os.Stderr
		return cmd
	})
	if err != nil {
		return nil, err
	}
	kill := func() {
		for _, p := range procs {
			p.Conn.Close()
			p.Kill()
			p.Wait() //nolint:errcheck // best-effort teardown after a failure
		}
	}
	conns := make([]*dist.Conn, len(procs))
	for i, p := range procs {
		conns[i] = p.Conn
	}
	coord, err := dist.NewCoordinator(conns, dist.CoordinatorConfig{
		Islands:           ncfg.Islands,
		MigrationInterval: ncfg.MigrationInterval,
		Migrants:          ncfg.Migrants,
		PopulationSize:    ncfg.Engine.PopulationSize,
		NumMachines:       fw.Evaluator().NumMachines(),
		Observer:          opts.Observer,
	})
	if err != nil {
		kill()
		return nil, err
	}
	if opts.Resume != nil {
		if err := coord.Restore(opts.Resume); err != nil {
			kill()
			return nil, err
		}
	}
	if opts.Generations < coord.Generation() {
		kill()
		return nil, fmt.Errorf("-generations %d is behind the resumed generation %d", opts.Generations, coord.Generation())
	}
	if err := coord.Run(opts.Generations - coord.Generation()); err != nil {
		kill()
		return nil, err
	}
	union, err := coord.Front()
	if err != nil {
		kill()
		return nil, err
	}
	var snap *nsga2.IslandsSnapshot
	if opts.CaptureSnapshot {
		if snap, err = coord.Snapshot(); err != nil {
			kill()
			return nil, err
		}
	}
	if err := coord.Close(); err != nil {
		kill()
		return nil, err
	}
	for w, p := range procs {
		if err := p.Wait(); err != nil {
			return nil, fmt.Errorf("worker %d: %w", w, err)
		}
	}
	res, err := fw.FinishFront(nsga2.MergeFronts(moea.UtilityEnergySpace(), union), opts)
	if err != nil {
		return nil, err
	}
	res.FinalSnapshot = snap
	return res, nil
}
