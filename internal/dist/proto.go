package dist

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire message schemas. Every Wire* struct has an encode side (append*
// payload builders under the Encoder entry points) and a decode side
// (Decode* functions over a frame payload); the detlint distwire
// analyzer verifies each field is consumed by both.

// WireIndividual is one elite chromosome on the wire: its genotype as
// uint32 images of the int32 genes, plus its objective vector. Inject
// re-evaluates migrants on arrival, so objectives travel only for
// cross-checks and tooling.
type WireIndividual struct {
	Machine    []int32
	Order      []int32
	Objectives []float64
}

// WireElites is one boundary ring edge's migration payload at one
// logical tick.
type WireElites struct {
	// Tick is the 0-based logical migration tick index within the run.
	Tick int32
	// From is the sending global island index; the ring edge determines
	// the destination island (From+1 modulo the ring size).
	From int32
	Inds []WireIndividual
}

// WireShardTick is one island's counter shard at one logical tick —
// the flat wire image of nsga2.ShardTick.
type WireShardTick struct {
	FullEvals, DeltaEvals                uint64
	MachinesSimulated, MachinesInherited uint64
	ArenaInUse, ArenaSlots               int64
	Migrants                             int64
}

// WireHello is the worker handshake: version, shard geometry, the
// islands-level generation counter, and per-island telemetry baselines
// for the coordinator's aggregated diffs.
type WireHello struct {
	Version    int32
	Worker     int32
	Workers    int32
	Islands    int32
	Lo, Hi     int32
	Generation int64
	Baselines  []WireShardTick
}

// WireRun starts a run.
type WireRun struct {
	Generations int64
}

// WireReport ends a worker's run: recorded shards per tick per shard
// island (global order).
type WireReport struct {
	// Ticks[t][i] is shard island i's counters at logical tick t.
	Ticks [][]WireShardTick
}

// WireFront carries each shard island's rank-1 front, in global island
// order.
type WireFront struct {
	Fronts [][]WireIndividual
}

// WireAbort reports a fatal worker-side error.
type WireAbort struct {
	Msg string
}

// badPayload builds the structured decode failure for impossible
// content.
func badPayload(t MsgType, format string, args ...any) error {
	return &WireError{Msg: t, Err: fmt.Errorf(format+": %w", append(args, ErrBadPayload)...)}
}

// appendIndividual encodes one chromosome.
func appendIndividual(b []byte, ind *WireIndividual) []byte {
	b = appendU32(b, uint32(len(ind.Machine)))
	for _, v := range ind.Machine {
		b = appendU32(b, uint32(v))
	}
	b = appendU32(b, uint32(len(ind.Order)))
	for _, v := range ind.Order {
		b = appendU32(b, uint32(v))
	}
	b = appendU32(b, uint32(len(ind.Objectives)))
	for _, v := range ind.Objectives {
		b = appendU64(b, math.Float64bits(v))
	}
	return b
}

// readInt32s decodes a u32-counted run of int32 values into dst,
// reusing its capacity; a nil dst gets a fresh slice.
//
//detlint:hotpath
func readInt32s(r *wireReader, dst []int32) []int32 {
	n := int(r.u32())
	if r.short || n < 0 || n > r.remaining()/4 {
		r.short = true
		return dst[:0]
	}
	if dst == nil || cap(dst) < n {
		dst = make([]int32, n)
	}
	dst = dst[:n]
	b := r.buf[r.off : r.off+4*n]
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	r.off += 4 * n
	return dst
}

// readIndividual decodes one chromosome into ind, reusing the capacity
// of its slices.
//
//detlint:hotpath
func readIndividual(r *wireReader, ind *WireIndividual) {
	ind.Machine = readInt32s(r, ind.Machine)
	ind.Order = readInt32s(r, ind.Order)
	n := int(r.u32())
	if r.short || n < 0 || n > r.remaining()/8 {
		r.short = true
		return
	}
	if ind.Objectives == nil || cap(ind.Objectives) < n {
		ind.Objectives = make([]float64, n)
	}
	ind.Objectives = ind.Objectives[:n]
	for i := range ind.Objectives {
		ind.Objectives[i] = math.Float64frombits(r.u64())
	}
}

// tickSlots is the number of fixed u64 slots in one encoded counter
// shard.
const tickSlots = 7

// appendTick encodes one counter shard (tickSlots fixed u64 slots).
func appendTick(b []byte, ts *WireShardTick) []byte {
	b = appendU64(b, ts.FullEvals)
	b = appendU64(b, ts.DeltaEvals)
	b = appendU64(b, ts.MachinesSimulated)
	b = appendU64(b, ts.MachinesInherited)
	b = appendU64(b, uint64(ts.ArenaInUse))
	b = appendU64(b, uint64(ts.ArenaSlots))
	b = appendU64(b, uint64(ts.Migrants))
	return b
}

// readTick decodes one counter shard.
func readTick(r *wireReader) WireShardTick {
	var ts WireShardTick
	ts.FullEvals = r.u64()
	ts.DeltaEvals = r.u64()
	ts.MachinesSimulated = r.u64()
	ts.MachinesInherited = r.u64()
	ts.ArenaInUse = int64(r.u64())
	ts.ArenaSlots = int64(r.u64())
	ts.Migrants = int64(r.u64())
	return ts
}

// readTicks decodes a u32-counted run of counter shards.
func readTicks(r *wireReader) []WireShardTick {
	n := int(r.u32())
	if r.short || n < 0 || n > r.remaining()/(tickSlots*8) {
		r.short = true
		return nil
	}
	out := make([]WireShardTick, n)
	for i := range out {
		out[i] = readTick(r)
	}
	return out
}

// EncodeHello writes the worker handshake.
func (e *Encoder) EncodeHello(m *WireHello) error {
	e.begin()
	e.buf = appendU32(e.buf, uint32(m.Version))
	e.buf = appendU32(e.buf, uint32(m.Worker))
	e.buf = appendU32(e.buf, uint32(m.Workers))
	e.buf = appendU32(e.buf, uint32(m.Islands))
	e.buf = appendU32(e.buf, uint32(m.Lo))
	e.buf = appendU32(e.buf, uint32(m.Hi))
	e.buf = appendU64(e.buf, uint64(m.Generation))
	e.buf = appendU32(e.buf, uint32(len(m.Baselines)))
	for i := range m.Baselines {
		e.buf = appendTick(e.buf, &m.Baselines[i])
	}
	return e.writeFrame(MsgHello)
}

// DecodeHello parses a MsgHello payload.
func DecodeHello(payload []byte) (*WireHello, error) {
	r := &wireReader{buf: payload}
	m := &WireHello{
		Version:    int32(r.u32()),
		Worker:     int32(r.u32()),
		Workers:    int32(r.u32()),
		Islands:    int32(r.u32()),
		Lo:         int32(r.u32()),
		Hi:         int32(r.u32()),
		Generation: int64(r.u64()),
	}
	m.Baselines = readTicks(r)
	if err := r.finish(MsgHello); err != nil {
		return nil, err
	}
	if m.Version != WireVersion {
		return nil, badPayload(MsgHello, "protocol version %d, want %d", m.Version, WireVersion)
	}
	if m.Lo < 0 || m.Hi <= m.Lo || m.Hi > m.Islands || len(m.Baselines) != int(m.Hi-m.Lo) {
		return nil, badPayload(MsgHello, "shard [%d, %d) of %d islands with %d baselines", m.Lo, m.Hi, m.Islands, len(m.Baselines))
	}
	return m, nil
}

// EncodeRun writes a run request.
func (e *Encoder) EncodeRun(m *WireRun) error {
	e.begin()
	e.buf = appendU64(e.buf, uint64(m.Generations))
	return e.writeFrame(MsgRun)
}

// DecodeRun parses a MsgRun payload.
func DecodeRun(payload []byte) (*WireRun, error) {
	r := &wireReader{buf: payload}
	m := &WireRun{Generations: int64(r.u64())}
	if err := r.finish(MsgRun); err != nil {
		return nil, err
	}
	if m.Generations <= 0 {
		return nil, badPayload(MsgRun, "generations %d", m.Generations)
	}
	return m, nil
}

// EncodeElites writes one boundary edge's migration payload. This is
// the per-tick hot path: the frame buffer is reused across calls.
//
//detlint:hotpath
func (e *Encoder) EncodeElites(m *WireElites) error {
	e.begin()
	e.buf = appendU32(e.buf, uint32(m.Tick))
	e.buf = appendU32(e.buf, uint32(m.From))
	e.buf = appendU32(e.buf, uint32(len(m.Inds)))
	for i := range m.Inds {
		e.buf = appendIndividual(e.buf, &m.Inds[i])
	}
	return e.writeFrame(MsgElites)
}

// DecodeElites parses a MsgElites payload into freshly allocated
// individuals.
func DecodeElites(payload []byte) (*WireElites, error) {
	m := &WireElites{}
	if err := DecodeElitesInto(payload, m); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeElitesInto parses a MsgElites payload into m, reusing the
// capacity of m.Inds and of each individual's slices, so decoding a
// steady stream of same-sized migrations allocates nothing. This is the
// per-tick hot path of both wire edges and the coordinator's relay. On
// error m's contents are unspecified.
//
//detlint:hotpath
func DecodeElitesInto(payload []byte, m *WireElites) error {
	r := &wireReader{buf: payload}
	m.Tick, m.From = int32(r.u32()), int32(r.u32())
	n := int(r.u32())
	if r.short || n < 0 || n > r.remaining()/12 {
		return (&wireReader{buf: payload, short: true}).finish(MsgElites)
	}
	if m.Inds == nil || cap(m.Inds) < n {
		m.Inds = make([]WireIndividual, n)
	}
	m.Inds = m.Inds[:n]
	for i := range m.Inds {
		readIndividual(r, &m.Inds[i])
	}
	if err := r.finish(MsgElites); err != nil {
		return err
	}
	if m.Tick < 0 || m.From < 0 {
		return badPayload(MsgElites, "tick %d from island %d", m.Tick, m.From)
	}
	return nil
}

// EncodeReport writes a worker's end-of-run report.
func (e *Encoder) EncodeReport(m *WireReport) error {
	e.begin()
	e.buf = appendU32(e.buf, uint32(len(m.Ticks)))
	for t := range m.Ticks {
		e.buf = appendU32(e.buf, uint32(len(m.Ticks[t])))
		for i := range m.Ticks[t] {
			e.buf = appendTick(e.buf, &m.Ticks[t][i])
		}
	}
	return e.writeFrame(MsgReport)
}

// DecodeReport parses a MsgReport payload. Every tick's shards share
// one backing array, sized by the payload, so a report costs the same
// few allocations however many ticks it carries.
func DecodeReport(payload []byte) (*WireReport, error) {
	r := &wireReader{buf: payload}
	m := &WireReport{}
	n := int(r.u32())
	if r.short || n < 0 || n > r.remaining()/4 {
		return nil, (&wireReader{buf: payload, short: true}).finish(MsgReport)
	}
	m.Ticks = make([][]WireShardTick, n)
	// No payload holds more shards than this, so appends never move flat
	// and each tick's subslice stays valid.
	flat := make([]WireShardTick, 0, r.remaining()/(tickSlots*8))
	for t := range m.Ticks {
		c := int(r.u32())
		if r.short || c < 0 || c > r.remaining()/(tickSlots*8) {
			r.short = true
			break
		}
		lo := len(flat)
		for i := 0; i < c; i++ {
			flat = append(flat, readTick(r))
		}
		m.Ticks[t] = flat[lo:len(flat):len(flat)]
	}
	if err := r.finish(MsgReport); err != nil {
		return nil, err
	}
	return m, nil
}

// EncodeControl writes an empty-payload control frame (MsgFrontReq,
// MsgExit).
func (e *Encoder) EncodeControl(t MsgType) error {
	e.begin()
	return e.writeFrame(t)
}

// DecodeControl validates an empty control payload.
func DecodeControl(t MsgType, payload []byte) error {
	r := &wireReader{buf: payload}
	return r.finish(t)
}

// EncodeFront writes a worker's per-island fronts.
func (e *Encoder) EncodeFront(m *WireFront) error {
	e.begin()
	e.buf = appendU32(e.buf, uint32(len(m.Fronts)))
	for f := range m.Fronts {
		e.buf = appendU32(e.buf, uint32(len(m.Fronts[f])))
		for i := range m.Fronts[f] {
			e.buf = appendIndividual(e.buf, &m.Fronts[f][i])
		}
	}
	return e.writeFrame(MsgFront)
}

// DecodeFront parses a MsgFront payload.
func DecodeFront(payload []byte) (*WireFront, error) {
	r := &wireReader{buf: payload}
	m := &WireFront{}
	n := int(r.u32())
	if r.short || n < 0 || n > r.remaining()/4 {
		return nil, (&wireReader{buf: payload, short: true}).finish(MsgFront)
	}
	m.Fronts = make([][]WireIndividual, n)
	for f := range m.Fronts {
		c := int(r.u32())
		if r.short || c < 0 || c > r.remaining()/12 {
			return nil, (&wireReader{buf: payload, short: true}).finish(MsgFront)
		}
		m.Fronts[f] = make([]WireIndividual, c)
		for i := range m.Fronts[f] {
			readIndividual(r, &m.Fronts[f][i])
		}
	}
	if err := r.finish(MsgFront); err != nil {
		return nil, err
	}
	return m, nil
}

// EncodeAbort writes a worker failure report.
func (e *Encoder) EncodeAbort(m *WireAbort) error {
	e.begin()
	e.buf = appendU32(e.buf, uint32(len(m.Msg)))
	e.buf = append(e.buf, m.Msg...)
	return e.writeFrame(MsgAbort)
}

// DecodeAbort parses a MsgAbort payload.
func DecodeAbort(payload []byte) (*WireAbort, error) {
	r := &wireReader{buf: payload}
	n := int(r.u32())
	if r.short || n < 0 || n > r.remaining() {
		return nil, (&wireReader{buf: payload, short: true}).finish(MsgAbort)
	}
	m := &WireAbort{Msg: string(r.buf[r.off : r.off+n])}
	r.off += n
	if err := r.finish(MsgAbort); err != nil {
		return nil, err
	}
	return m, nil
}
