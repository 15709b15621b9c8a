package dist

import (
	"fmt"
	"sync"

	"tradeoff/internal/nsga2"
	"tradeoff/internal/obs"
)

// CoordinatorConfig parameterizes the parent side of a distributed
// island run. Every field describing the ring must match the workers'
// WorkerEnv exactly; the coordinator verifies what it can from the
// handshakes.
type CoordinatorConfig struct {
	// Islands, MigrationInterval, Migrants mirror the workers'
	// nsga2.IslandConfig (explicit, no defaulting).
	Islands           int
	MigrationInterval int
	Migrants          int
	// PopulationSize is the per-island population (for the aggregated
	// stats events); NumMachines is those events' machine count, as the
	// in-process island model reports it.
	PopulationSize int
	NumMachines    int
	// Observer, when non-nil, receives the authoritative full-ring
	// telemetry stream: per tick, every ring edge's migration event in
	// from-ascending order, then one aggregated "islands" stats event —
	// bit-identical to the in-process island model's sequence.
	Observer obs.Observer
	// Board, when non-nil, counts wire round trips.
	Board *obs.DistBoard
}

// Coordinator drives worker shards through handshake, runs, front
// collection, and shutdown. During a run it routes boundary
// migrations: each worker's outbound frames are read by a per-worker
// reader goroutine and forwarded through a one-deep queue to the
// destination worker — the queue plus socket buffering gives every
// boundary edge at least the one-delivery capacity the in-process
// mailboxes have, preserving the deadlock-freedom argument of the
// logical-clock schedule (DESIGN.md §15). Not safe for concurrent use.
type Coordinator struct {
	cfg    CoordinatorConfig
	conns  []*Conn
	lo, hi []int
	gen    int
	// aggBase mirrors Islands.aggBase: cross-island counter sums at the
	// last emitted stats event, seeded from the handshake baselines.
	aggBase nsga2.ShardTick
	failed  error
	// relay[w] holds the buffers worker w's reader decodes its boundary
	// frames into, reused across ticks and runs (see relayBufs).
	relay [][relayBufs]WireElites
}

// relayBufs is the number of decode buffers each reader rotates through,
// one per relayed frame. Every frame worker w sends goes to the same
// destination writer, over a one-deep queue that the writer drains in
// order and encodes synchronously. Once the reader has queued frame k+2,
// the writer has taken frame k+1, so it has finished encoding frame k
// and the reader may decode frame k+3 into frame k's buffer. Three is
// the fewest this allows (DESIGN.md §15).
const relayBufs = 3

// NewCoordinator performs the handshake over the given worker
// connections (in worker order) and verifies the shard geometry:
// contiguous ranges covering [0, Islands) with equal generation
// counters.
func NewCoordinator(conns []*Conn, cfg CoordinatorConfig) (*Coordinator, error) {
	switch {
	case len(conns) < 1:
		return nil, fmt.Errorf("dist: no worker connections")
	case cfg.Islands < len(conns):
		return nil, fmt.Errorf("dist: %d islands across %d workers", cfg.Islands, len(conns))
	case cfg.MigrationInterval < 1:
		return nil, fmt.Errorf("dist: migration interval %d, want >= 1", cfg.MigrationInterval)
	case cfg.Migrants < 0:
		return nil, fmt.Errorf("dist: migrants %d, want >= 0", cfg.Migrants)
	}
	c := &Coordinator{cfg: cfg, conns: conns, relay: make([][relayBufs]WireElites, len(conns))}
	for w, conn := range conns {
		payload, err := conn.expectReply(MsgHello)
		if err != nil {
			return nil, fmt.Errorf("dist: worker %d handshake: %w", w, err)
		}
		cfg.Board.AddRoundtrip()
		m, err := DecodeHello(payload)
		if err != nil {
			return nil, fmt.Errorf("dist: worker %d handshake: %w", w, err)
		}
		wantLo, wantHi := ShardRange(cfg.Islands, len(conns), w)
		switch {
		case int(m.Worker) != w || int(m.Workers) != len(conns) || int(m.Islands) != cfg.Islands:
			return nil, fmt.Errorf("dist: worker %d announced worker %d/%d over %d islands",
				w, m.Worker, m.Workers, m.Islands)
		case int(m.Lo) != wantLo || int(m.Hi) != wantHi:
			return nil, fmt.Errorf("dist: worker %d announced shard [%d, %d), want [%d, %d)",
				w, m.Lo, m.Hi, wantLo, wantHi)
		case w > 0 && int(m.Generation) != c.gen:
			return nil, fmt.Errorf("dist: worker %d at generation %d, worker 0 at %d", w, m.Generation, c.gen)
		}
		if w == 0 {
			c.gen = int(m.Generation)
		}
		c.lo = append(c.lo, int(m.Lo))
		c.hi = append(c.hi, int(m.Hi))
		for _, b := range m.Baselines {
			c.aggBase.Add(tickFromWire(b))
		}
	}
	return c, nil
}

// Generation returns the number of completed generations.
func (c *Coordinator) Generation() int { return c.gen }

// owner returns the worker whose shard holds the given global island.
func (c *Coordinator) owner(island int) int {
	for w := range c.lo {
		if island >= c.lo[w] && island < c.hi[w] {
			return w
		}
	}
	return -1
}

// fail latches the coordinator's first fatal error and tears the
// connections down so every blocked reader and writer unblocks.
func (c *Coordinator) fail(err error) error {
	if c.failed == nil {
		c.failed = err
	}
	for _, conn := range c.conns {
		conn.Close() //nolint:errcheck // teardown
	}
	return c.failed
}

// Run advances the whole ring by the given number of generations:
// it starts every worker, routes boundary migrations between them until
// all reports arrive, then emits the full-ring telemetry for the run.
func (c *Coordinator) Run(generations int) error {
	if c.failed != nil {
		return c.failed
	}
	if generations <= 0 {
		return nil
	}
	nw := len(c.conns)
	start := c.gen
	_, nticks := nsga2.RingTicks(start, start+generations,
		c.cfg.MigrationInterval, c.cfg.Migrants, c.cfg.Islands)
	for w, conn := range c.conns {
		if err := conn.SendRun(&WireRun{Generations: int64(generations)}); err != nil {
			return c.fail(fmt.Errorf("dist: worker %d: %w", w, err))
		}
	}

	reports := make([]*WireReport, nw)
	rerrs := make([]error, nw)
	werrs := make([]error, nw)
	fwd := make([]chan *WireElites, nw)
	for w := range fwd {
		fwd[w] = make(chan *WireElites, 1)
	}
	var tearOnce sync.Once
	tear := func() {
		for _, conn := range c.conns {
			conn.Close() //nolint:errcheck // teardown
		}
	}

	var writers sync.WaitGroup
	for w := 0; w < nw; w++ {
		writers.Add(1)
		go func(w int, conn *Conn) {
			defer writers.Done()
			// After a send failure the writer keeps draining so no reader
			// blocks on a full queue during teardown.
			for m := range fwd[w] {
				if werrs[w] != nil {
					continue
				}
				if err := conn.SendElites(m); err != nil {
					werrs[w] = fmt.Errorf("dist: forward to worker %d: %w", w, err)
					tearOnce.Do(tear)
				}
			}
		}(w, c.conns[w])
	}

	var readers sync.WaitGroup
	for w := 0; w < nw; w++ {
		readers.Add(1)
		go func(w int, conn *Conn) {
			defer readers.Done()
			bufs := &c.relay[w]
			for k := 0; ; {
				typ, payload, err := conn.Next()
				if err != nil {
					rerrs[w] = fmt.Errorf("dist: worker %d: %w", w, err)
					tearOnce.Do(tear)
					return
				}
				switch typ {
				case MsgElites:
					m := &bufs[k%relayBufs]
					k++
					if err := DecodeElitesInto(payload, m); err != nil {
						rerrs[w] = fmt.Errorf("dist: worker %d: %w", w, err)
						tearOnce.Do(tear)
						return
					}
					from := int(m.From)
					if from+1 != c.hi[w] {
						rerrs[w] = fmt.Errorf("dist: worker %d sent elites from island %d, boundary is %d",
							w, from, c.hi[w]-1)
						tearOnce.Do(tear)
						return
					}
					dest := c.owner((from + 1) % c.cfg.Islands)
					c.cfg.Board.AddRoundtrip()
					fwd[dest] <- m
				case MsgReport:
					m, err := DecodeReport(payload)
					if err != nil {
						rerrs[w] = fmt.Errorf("dist: worker %d: %w", w, err)
						tearOnce.Do(tear)
					} else {
						reports[w] = m
					}
					return
				case MsgAbort:
					m, err := DecodeAbort(payload)
					if err != nil {
						rerrs[w] = fmt.Errorf("dist: worker %d: %w", w, err)
					} else {
						rerrs[w] = fmt.Errorf("dist: worker %d aborted: %s", w, m.Msg)
					}
					tearOnce.Do(tear)
					return
				case MsgHello, MsgRun, MsgFrontReq, MsgFront, MsgExit:
					rerrs[w] = &WireError{Frame: conn.dec.Frame(), Msg: typ,
						Err: fmt.Errorf("from running worker %d: %w", w, ErrUnexpectedMessage)}
					tearOnce.Do(tear)
					return
				}
			}
		}(w, c.conns[w])
	}

	readers.Wait()
	for w := range fwd {
		close(fwd[w])
	}
	writers.Wait()

	for w := 0; w < nw; w++ {
		if rerrs[w] != nil {
			return c.fail(rerrs[w])
		}
	}
	for w := 0; w < nw; w++ {
		if werrs[w] != nil {
			return c.fail(werrs[w])
		}
	}
	for w, rep := range reports {
		if len(rep.Ticks) != nticks {
			return c.fail(fmt.Errorf("dist: worker %d reported %d ticks, want %d", w, len(rep.Ticks), nticks))
		}
		for t := range rep.Ticks {
			if len(rep.Ticks[t]) != c.hi[w]-c.lo[w] {
				return c.fail(fmt.Errorf("dist: worker %d tick %d has %d islands, want %d",
					w, t, len(rep.Ticks[t]), c.hi[w]-c.lo[w]))
			}
		}
	}
	c.gen += generations

	if c.cfg.Observer == nil {
		return nil
	}
	recs := make([][]nsga2.ShardTick, c.cfg.Islands)
	for w, rep := range reports {
		for li := 0; li < c.hi[w]-c.lo[w]; li++ {
			rec := make([]nsga2.ShardTick, nticks)
			for t := range rec {
				rec[t] = tickFromWire(rep.Ticks[t][li])
			}
			recs[c.lo[w]+li] = rec
		}
	}
	nsga2.EmitTicks(c.cfg.Observer, recs, start, c.cfg.MigrationInterval,
		c.cfg.PopulationSize*c.cfg.Islands, c.cfg.NumMachines, &c.aggBase)
	return nil
}

// Front collects every worker's per-island rank-1 fronts and returns
// their union in global island order — the same union the in-process
// Islands.ParetoFront merges (apply nsga2.MergeFronts to finish).
func (c *Coordinator) Front() ([]nsga2.Individual, error) {
	if c.failed != nil {
		return nil, c.failed
	}
	var union []nsga2.Individual
	for w, conn := range c.conns {
		if err := conn.SendControl(MsgFrontReq); err != nil {
			return nil, c.fail(fmt.Errorf("dist: worker %d: %w", w, err))
		}
		payload, err := conn.expectReply(MsgFront)
		if err != nil {
			return nil, c.fail(fmt.Errorf("dist: worker %d: %w", w, err))
		}
		c.cfg.Board.AddRoundtrip()
		m, err := DecodeFront(payload)
		if err != nil {
			return nil, c.fail(fmt.Errorf("dist: worker %d: %w", w, err))
		}
		if len(m.Fronts) != c.hi[w]-c.lo[w] {
			return nil, c.fail(fmt.Errorf("dist: worker %d sent %d fronts, want %d",
				w, len(m.Fronts), c.hi[w]-c.lo[w]))
		}
		union = append(union, frontFromWire(m)...)
	}
	return union, nil
}

// Close asks every worker to exit (best effort) and closes the
// connections.
func (c *Coordinator) Close() error {
	var first error
	for _, conn := range c.conns {
		if err := conn.SendControl(MsgExit); err != nil && first == nil && c.failed == nil {
			first = err
		}
	}
	for _, conn := range c.conns {
		if err := conn.Close(); err != nil && first == nil && c.failed == nil {
			first = err
		}
	}
	return first
}
