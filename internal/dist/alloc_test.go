package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"slices"
	"testing"

	"tradeoff/internal/nsga2"
	"tradeoff/internal/rng"
)

// TestWireEdgeAllocs: a warm boundary tick allocates nothing on either
// worker edge. The sender's Send unpacks genome-carrying elites (as the
// ring packs them) into the edge's reused allocations and encodes them;
// the receiver's Recv decodes into its reused buffers and Inject copies
// the migrants into arena genomes. The two edges share one loopback
// connection, and every delivery must carry the sent genotypes.
func TestWireEdgeAllocs(t *testing.T) {
	e := newEval(t, 60)
	cfg := nsga2.Config{PopulationSize: 16, Workers: 1}
	src, err := nsga2.New(e, cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := nsga2.New(e, cfg, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 5; g++ {
		src.Step()
		dst.Step()
	}
	elites := src.ParetoFront() // genome-sharing, nil Alloc: like packed migrants
	elites = elites[:min(len(elites), 3)]
	if elites[0].Alloc != nil {
		t.Fatal("front individuals carry Alloc; the test needs genome-carrying elites")
	}

	conn := NewConn(nopCloser{new(bytes.Buffer)}, nil)
	out := &wireOutEdge{conn: conn, from: 5}
	in := &wireInEdge{conn: conn, expectFrom: 5}
	var tickErr error
	tick := func() {
		if err := out.Send(elites); err != nil {
			tickErr = err
			return
		}
		got, err := in.Recv()
		if err != nil {
			tickErr = err
			return
		}
		if err := dst.Inject(got); err != nil {
			tickErr = err
		}
	}

	if err := out.Send(elites); err != nil {
		t.Fatal(err)
	}
	got, err := in.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(elites) {
		t.Fatalf("received %d migrants, sent %d", len(got), len(elites))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Alloc, elites[i].Allocation()) ||
			!slices.Equal(got[i].Objectives, elites[i].Objectives) {
			t.Fatalf("migrant %d arrived as %+v, sent %+v", i, got[i], elites[i])
		}
	}
	tick() // warm Inject's scratch
	if tickErr != nil {
		t.Fatal(tickErr)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race; Inject validates through Validate's pool")
	}
	if n := testing.AllocsPerRun(20, tick); n != 0 {
		t.Fatalf("warm boundary tick allocates %v times, want 0", n)
	}
	if tickErr != nil {
		t.Fatal(tickErr)
	}
}

// fakeWorker serves the worker side of the protocol over a pipe from
// canned frames, without an engine: at each tick it sends the same
// boundary elites and checks that the frame its predecessor sent
// arrives byte for byte. It allocates nothing per tick, so a
// coordinator measured against fake workers is measured alone.
type fakeWorker struct {
	conn     *Conn
	hello    WireHello
	cfg      nsga2.IslandConfig
	out      WireElites
	pred     []byte // the predecessor's payload, tick field included
	report   WireReport
	gen      int
	err      error
	finished chan struct{}
}

func (f *fakeWorker) serve() {
	defer close(f.finished)
	f.err = f.run()
}

func (f *fakeWorker) run() error {
	if err := f.conn.SendHello(&f.hello); err != nil {
		return err
	}
	rep := &WireReport{}
	for {
		typ, payload, err := f.conn.Next()
		if err != nil {
			return err
		}
		if typ == MsgExit {
			return nil
		}
		if typ != MsgRun {
			return errRelay
		}
		gens := int64(binary.LittleEndian.Uint64(payload))
		_, nticks := nsga2.RingTicks(f.gen, f.gen+int(gens), f.cfg.MigrationInterval, f.cfg.Migrants, f.cfg.Islands)
		f.gen += int(gens)
		for k := 0; k < nticks; k++ {
			f.out.Tick = int32(k)
			if err := f.conn.SendElites(&f.out); err != nil {
				return err
			}
			typ, payload, err := f.conn.Next()
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint32(f.pred, uint32(k))
			if typ != MsgElites || !bytes.Equal(payload, f.pred) {
				return errRelay
			}
		}
		rep.Ticks = f.report.Ticks[:nticks]
		if err := f.conn.SendReport(rep); err != nil {
			return err
		}
	}
}

var errRelay = errors.New("unexpected frame: not the predecessor's relayed elites")

// TestCoordinatorRelayAllocs: the coordinator relays boundary frames
// without allocating, so Run's allocations do not grow with the number
// of ticks it relays; and each relayed frame reaches its destination
// byte-identical to the one its source sent.
func TestCoordinatorRelayAllocs(t *testing.T) {
	const workers, genes, maxGens = 2, 60, 200
	cfg := distCfg(4, 5, 2, 16)
	_, maxTicks := nsga2.RingTicks(0, 4*maxGens, cfg.MigrationInterval, cfg.Migrants, cfg.Islands)
	fakes := make([]*fakeWorker, workers)
	conns := make([]*Conn, workers)
	for w := range fakes {
		parent, child := net.Pipe()
		conns[w] = NewConn(parent, nil)
		lo, hi := ShardRange(cfg.Islands, workers, w)
		f := &fakeWorker{
			conn: NewConn(child, nil),
			hello: WireHello{Version: WireVersion, Worker: int32(w), Workers: workers,
				Islands: int32(cfg.Islands), Lo: int32(lo), Hi: int32(hi),
				Baselines: make([]WireShardTick, hi-lo)},
			cfg:      cfg,
			out:      *benchElites(cfg.Migrants, genes),
			report:   WireReport{Ticks: make([][]WireShardTick, maxTicks)},
			finished: make(chan struct{}),
		}
		f.out.From = int32(hi - 1)
		f.out.Inds[0].Machine[0] = int32(w) // tell the workers' frames apart
		for k := range f.report.Ticks {
			f.report.Ticks[k] = make([]WireShardTick, hi-lo)
		}
		fakes[w] = f
	}
	for w, f := range fakes {
		var buf bytes.Buffer
		if err := NewEncoder(&buf, nil).EncodeElites(&fakes[(w+workers-1)%workers].out); err != nil {
			t.Fatal(err)
		}
		f.pred = buf.Bytes()[5:]
		go f.serve()
	}
	coord, err := NewCoordinator(conns, CoordinatorConfig{
		Islands:           cfg.Islands,
		MigrationInterval: cfg.MigrationInterval,
		Migrants:          cfg.Migrants,
		PopulationSize:    cfg.Engine.PopulationSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(gens int) func() {
		return func() {
			if err := coord.Run(gens); err != nil {
				t.Fatal(err)
			}
		}
	}
	short := testing.AllocsPerRun(3, run(20))
	long := testing.AllocsPerRun(3, run(maxGens))
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	for w, f := range fakes {
		<-f.finished
		if f.err != nil {
			t.Fatalf("worker %d: %v", w, f.err)
		}
	}
	t.Logf("Run allocations: %v over %d generations, %v over %d", short, 20, long, maxGens)
	if long > short {
		t.Fatalf("Coordinator.Run allocates %v times over %d generations and %v over %d: relaying allocates per tick",
			short, 20, long, maxGens)
	}
}

// dirtyElites returns a decode target left over from an earlier,
// differently shaped message, with spare capacity and stale contents.
func dirtyElites() *WireElites {
	m := benchElites(3, 9)
	m.Tick, m.From = 99, 42
	m.Inds[1].Objectives = append(m.Inds[1].Objectives, 7, 8, 9)
	m.Inds[2].Machine = nil
	m.Inds = m.Inds[:1]
	return m
}

// TestDecodeElitesIntoReusesDirty: decoding into a reused target that
// holds a differently shaped earlier message gives exactly what a
// fresh DecodeElites gives, for payloads with fewer, as many and more
// individuals and genes than the target holds, and after a failed
// decode into it.
func TestDecodeElitesIntoReusesDirty(t *testing.T) {
	frames := []*WireElites{
		{Tick: 0, From: 0, Inds: []WireIndividual{}},
		benchElites(1, 4),
		benchElites(2, 9),
		benchElites(3, 12),
		{Tick: 7, From: 1, Inds: []WireIndividual{
			{Machine: []int32{}, Order: []int32{}, Objectives: []float64{}},
			{Machine: []int32{3}, Order: []int32{0}, Objectives: []float64{1, 2, 3}},
		}},
	}
	target := dirtyElites()
	for round := 0; round < 2; round++ {
		for i, m := range frames {
			raw := encodeFrames(t, func(e *Encoder) error { return e.EncodeElites(m) })
			_, payload := decodeOne(t, raw)
			fresh, err := DecodeElites(payload)
			if err != nil {
				t.Fatal(err)
			}
			for _, dirty := range []*WireElites{dirtyElites(), target} {
				if err := DecodeElitesInto(payload, dirty); err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if !reflect.DeepEqual(dirty, fresh) {
					t.Fatalf("round %d frame %d: reused decode %+v, fresh %+v", round, i, dirty, fresh)
				}
			}
			if err := DecodeElitesInto(payload[:len(payload)-1], target); err == nil {
				t.Fatalf("frame %d: truncated payload decoded", i)
			}
		}
	}
}
