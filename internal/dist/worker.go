package dist

import (
	"fmt"
	"io"

	"tradeoff/internal/nsga2"
	"tradeoff/internal/obs"
	"tradeoff/internal/rng"
	"tradeoff/internal/sched"
)

// ShardRange returns the contiguous range [lo, hi) of global island
// indices worker w owns when an islands-island ring is split across
// workers processes: the same balanced split for every caller, so the
// coordinator and workers agree on the partition without exchanging it.
func ShardRange(islands, workers, worker int) (lo, hi int) {
	return worker * islands / workers, (worker + 1) * islands / workers
}

// WorkerEnv is everything a worker process needs to build and serve its
// shard. The evaluator, configuration, and seed must be identical
// across the parent and every worker — each worker re-derives its
// islands' rng streams from the shared seed (NewIslandShard splits once
// per ring position), which is what makes the distributed run
// bit-identical to the in-process one.
type WorkerEnv struct {
	// Worker is this worker's index in [0, Workers).
	Worker int
	// Workers is the total worker count.
	Workers int
	// Eval is the worker's own evaluator over the shared problem input.
	Eval *sched.Evaluator
	// Config is the full-ring island configuration; Islands must be
	// explicit (the worker refuses to guess a default that the parent
	// might fill differently).
	Config nsga2.IslandConfig
	// Seed is the run's shared root rng seed.
	Seed uint64
	// Observer, when non-nil, receives this worker's own migration
	// events (worker-local trace); the parent emits the authoritative
	// full-ring telemetry stream.
	Observer obs.Observer
}

// wireInEdge is the shard's inbound boundary Mailbox: island Lo's
// predecessor edge, read straight off the worker socket. During a run
// only MsgElites frames arrive, in tick order, so the edge owns the
// connection's read side until the run ends.
//
// Each delivery is decoded into the edge's own buffers, reused at every
// tick: msg holds the decoded slices, and inds[i].Alloc points at
// allocs[i], whose slices alias msg.Inds[i]'s. Under the Mailbox rule
// the island is done with a delivery before its next Recv (Inject
// copies the migrants into arena genomes), so one set of buffers is
// enough.
type wireInEdge struct {
	conn       *Conn
	expectFrom int32
	tick       int32

	msg    WireElites
	allocs []sched.Allocation
	inds   []nsga2.Individual
}

//detlint:hotpath
func (e *wireInEdge) Recv() ([]nsga2.Individual, error) {
	typ, payload, err := e.conn.Next()
	if err == io.EOF {
		return nil, frameErr(0, MsgElites, "connection closed mid-run: %w", ErrTruncated)
	}
	if err != nil {
		return nil, err
	}
	if typ != MsgElites {
		return nil, frameErr(e.conn.dec.Frame(), typ, "awaiting elites mid-run: %w", ErrUnexpectedMessage)
	}
	m := &e.msg
	if err := DecodeElitesInto(payload, m); err != nil {
		return nil, err
	}
	if m.From != e.expectFrom || m.Tick != e.tick {
		return nil, badPayload(MsgElites, "tick %d from island %d, want tick %d from island %d",
			m.Tick, m.From, e.tick, e.expectFrom)
	}
	e.tick++
	n := len(m.Inds)
	if cap(e.allocs) < n {
		e.allocs = make([]sched.Allocation, n)
		e.inds = make([]nsga2.Individual, n)
	}
	e.allocs, e.inds = e.allocs[:n], e.inds[:n]
	for i := range m.Inds {
		w := &m.Inds[i]
		e.allocs[i] = sched.Allocation{Machine: w.Machine, Order: w.Order}
		e.inds[i] = nsga2.Individual{Alloc: &e.allocs[i], Objectives: w.Objectives}
	}
	return e.inds, nil
}

func (e *wireInEdge) Send([]nsga2.Individual) error {
	return fmt.Errorf("dist: inbound boundary edge cannot send")
}

// wireOutEdge is the shard's outbound boundary Mailbox: island Hi-1's
// successor edge, written straight onto the worker socket (the
// coordinator forwards to the owning worker).
//
// Send unpacks each elite into the edge's reused allocs and encodes msg,
// whose slices alias them, before it returns. It keeps no reference to
// the elites, so under the Mailbox rule the island's send buffers are
// free again as soon as Send returns.
type wireOutEdge struct {
	conn *Conn
	from int32
	tick int32

	msg    WireElites
	allocs []sched.Allocation
}

//detlint:hotpath
func (e *wireOutEdge) Send(elites []nsga2.Individual) error {
	n := len(elites)
	if cap(e.allocs) < n {
		e.allocs = make([]sched.Allocation, n)
		e.msg.Inds = make([]WireIndividual, n)
	}
	e.allocs, e.msg.Inds = e.allocs[:n], e.msg.Inds[:n]
	e.msg.Tick, e.msg.From = e.tick, e.from
	for i := range elites {
		a := &e.allocs[i]
		elites[i].AllocationInto(a)
		e.msg.Inds[i] = WireIndividual{Machine: a.Machine, Order: a.Order, Objectives: elites[i].Objectives}
	}
	err := e.conn.SendElites(&e.msg)
	e.tick++
	return err
}

func (e *wireOutEdge) Recv() ([]nsga2.Individual, error) {
	return nil, fmt.Errorf("dist: outbound boundary edge cannot receive")
}

// ServeWorker builds the worker's island shard, performs the handshake,
// and serves the coordinator's control loop until MsgExit or stream
// end. A worker-side failure is reported to the parent as MsgAbort
// (best effort) and returned.
func ServeWorker(rw io.ReadWriteCloser, env WorkerEnv) error {
	conn := NewConn(rw, nil)
	err := serveWorker(conn, env)
	if err != nil {
		conn.SendAbort(&WireAbort{Msg: err.Error()}) //nolint:errcheck // best-effort report on a possibly dead socket
	}
	return err
}

func serveWorker(conn *Conn, env WorkerEnv) error {
	cfg := env.Config
	switch {
	case env.Workers < 1 || env.Worker < 0 || env.Worker >= env.Workers:
		return fmt.Errorf("dist: worker %d of %d", env.Worker, env.Workers)
	case env.Eval == nil:
		return fmt.Errorf("dist: nil evaluator")
	case cfg.Islands < 1:
		return fmt.Errorf("dist: worker needs an explicit island count")
	case cfg.Islands < env.Workers:
		return fmt.Errorf("dist: %d islands across %d workers", cfg.Islands, env.Workers)
	}
	lo, hi := ShardRange(cfg.Islands, env.Workers, env.Worker)
	shard, err := nsga2.NewIslandShard(env.Eval, cfg, rng.New(env.Seed), lo, hi)
	if err != nil {
		return err
	}
	if err := conn.SendHello(&WireHello{
		Version:    WireVersion,
		Worker:     int32(env.Worker),
		Workers:    int32(env.Workers),
		Islands:    int32(cfg.Islands),
		Lo:         int32(lo),
		Hi:         int32(hi),
		Generation: int64(shard.Generation()),
		Baselines:  ticksToWire(shard.Baselines()),
	}); err != nil {
		return err
	}
	for {
		typ, payload, err := conn.Next()
		if err == io.EOF {
			// The parent went away without MsgExit (crash or kill); there
			// is nobody left to serve.
			return nil
		}
		if err != nil {
			return err
		}
		switch typ {
		case MsgRestore:
			m, err := DecodeRestore(payload)
			if err != nil {
				return err
			}
			if int(m.Lo) != lo || len(m.Segments) != hi-lo {
				return badPayload(MsgRestore, "segments [%d, %d) for shard [%d, %d)",
					m.Lo, int(m.Lo)+len(m.Segments), lo, hi)
			}
			if err := shard.Restore(int(m.Generation), segmentsFromWire(m.Segments)); err != nil {
				return err
			}
			if err := conn.SendRestored(&WireRestored{Baselines: ticksToWire(shard.Baselines())}); err != nil {
				return err
			}
		case MsgRun:
			m, err := DecodeRun(payload)
			if err != nil {
				return err
			}
			if err := runShard(conn, env, shard, int(m.Generations)); err != nil {
				return err
			}
		case MsgFrontReq:
			if err := DecodeControl(typ, payload); err != nil {
				return err
			}
			front := frontToWire(shard.Fronts())
			if err := conn.SendFront(&front); err != nil {
				return err
			}
		case MsgSnapshotReq:
			if err := DecodeControl(typ, payload); err != nil {
				return err
			}
			if err := conn.SendSnapshot(&WireSnapshot{
				Generation: int64(shard.Generation()),
				Segments:   segmentsToWire(shard.Snapshots()),
			}); err != nil {
				return err
			}
		case MsgExit:
			return DecodeControl(typ, payload)
		case MsgHello, MsgRestored, MsgElites, MsgReport, MsgFront, MsgSnapshot, MsgAbort:
			return &WireError{Frame: conn.dec.Frame(), Msg: typ,
				Err: fmt.Errorf("in worker control state: %w", ErrUnexpectedMessage)}
		}
	}
}

// runShard executes one MsgRun: it runs the shard with wire-backed
// boundary edges, emits the worker-local migration events, and reports
// the per-tick counter shards back to the parent.
func runShard(conn *Conn, env WorkerEnv, shard *nsga2.IslandShard, generations int) error {
	cfg := env.Config
	k := cfg.Islands
	lo, hi := shard.Lo(), shard.Hi()
	start := shard.Generation()
	firstTick, nticks := nsga2.RingTicks(start, start+generations, cfg.MigrationInterval, cfg.Migrants, k)
	var in, out nsga2.Mailbox
	if nticks > 0 && !(lo == 0 && hi == k) {
		in = &wireInEdge{conn: conn, expectFrom: int32((lo - 1 + k) % k)}
		out = &wireOutEdge{conn: conn, from: int32(hi - 1)}
	}
	recs, err := shard.Run(generations, in, out)
	if err != nil {
		return err
	}
	if env.Observer != nil {
		for t := 0; t < nticks; t++ {
			gen := firstTick + t*cfg.MigrationInterval
			for li := 0; li < hi-lo; li++ {
				env.Observer.ObserveMigration(obs.MigrationEvent{
					Generation: gen,
					From:       lo + li,
					To:         (lo + li + 1) % k,
					Count:      recs[li][t].Migrants,
				})
			}
		}
	}
	rep := &WireReport{Ticks: make([][]WireShardTick, nticks)}
	for t := 0; t < nticks; t++ {
		rep.Ticks[t] = make([]WireShardTick, hi-lo)
		for li := 0; li < hi-lo; li++ {
			rep.Ticks[t][li] = tickToWire(recs[li][t])
		}
	}
	return conn.SendReport(rep)
}
