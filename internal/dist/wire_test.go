package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// encodeFrames runs fn against an encoder writing into a fresh buffer
// and returns the raw stream.
func encodeFrames(t *testing.T, fn func(e *Encoder) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fn(NewEncoder(&buf, nil)); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// decodeOne reads exactly one frame from raw.
func decodeOne(t *testing.T, raw []byte) (MsgType, []byte) {
	t.Helper()
	typ, payload, err := NewDecoder(bytes.NewReader(raw), nil).Next()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return typ, payload
}

// TestWireGoldenElites pins the byte-exact frame layout: any codec
// change that reshuffles fields or widths breaks this test, which is
// the point — the wire format is part of the determinism contract.
func TestWireGoldenElites(t *testing.T) {
	m := &WireElites{
		Tick: 3,
		From: 7,
		Inds: []WireIndividual{{
			Machine:    []int32{1, -1},
			Order:      []int32{0},
			Objectives: []float64{0.5},
		}},
	}
	raw := encodeFrames(t, func(e *Encoder) error { return e.EncodeElites(m) })
	want := []byte{
		44, 0, 0, 0, // payload length 44
		byte(MsgElites), // type
		3, 0, 0, 0,      // tick
		7, 0, 0, 0, // from
		1, 0, 0, 0, // 1 individual
		2, 0, 0, 0, // 2 machine genes
		1, 0, 0, 0, // gene 1
		255, 255, 255, 255, // gene -1 two's complement
		1, 0, 0, 0, // 1 order gene
		0, 0, 0, 0, // gene 0
		1, 0, 0, 0, // 1 objective
		0, 0, 0, 0, 0, 0, 224, 63, // 0.5 as IEEE-754 LE
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("frame bytes\n got %v\nwant %v", raw, want)
	}
	typ, payload := decodeOne(t, raw)
	if typ != MsgElites {
		t.Fatalf("type %v, want elites", typ)
	}
	got, err := DecodeElites(payload)
	if err != nil {
		t.Fatalf("DecodeElites: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip: got %+v, want %+v", got, m)
	}
}

// TestWireGoldenRun pins the simplest frame end to end.
func TestWireGoldenRun(t *testing.T) {
	raw := encodeFrames(t, func(e *Encoder) error {
		return e.EncodeRun(&WireRun{Generations: 258})
	})
	want := []byte{8, 0, 0, 0, byte(MsgRun), 2, 1, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(raw, want) {
		t.Fatalf("frame bytes\n got %v\nwant %v", raw, want)
	}
}

func sampleHello() *WireHello {
	return &WireHello{
		Version: WireVersion, Worker: 1, Workers: 2,
		Islands: 4, Lo: 2, Hi: 4, Generation: 50,
		Baselines: []WireShardTick{
			{FullEvals: 10, MachinesInherited: 3, ArenaSlots: 8, Migrants: 2},
			{DeltaEvals: 7, MachinesSimulated: 1, ArenaInUse: 16},
		},
	}
}

func sampleSegments() []WireSegment {
	return []WireSegment{
		{Generation: 9, RngS: 0xdeadbeef, RngInc: 0x1234,
			Genomes: []WireGenome{{Machine: []int32{0, 1, 2}, Order: []int32{2, 1, 0}}}},
		{Generation: 9, RngS: 1, RngInc: 3, Genomes: []WireGenome{}},
	}
}

// TestWireRoundTrips covers every message type through a single
// multi-frame stream.
func TestWireRoundTrips(t *testing.T) {
	hello := sampleHello()
	restore := &WireRestore{Generation: 9, Lo: 2, Segments: sampleSegments()}
	restored := &WireRestored{Baselines: hello.Baselines}
	run := &WireRun{Generations: 25}
	elites := &WireElites{Tick: 0, From: 3, Inds: []WireIndividual{
		{Machine: []int32{5}, Order: []int32{0}, Objectives: []float64{1.5, -2.25}},
		{Machine: []int32{}, Order: []int32{}, Objectives: []float64{}},
	}}
	report := &WireReport{
		Ticks: [][]WireShardTick{
			{{FullEvals: 1}, {FullEvals: 2}},
			{{FullEvals: 3, Migrants: 2}, {MachinesInherited: 4}},
		},
	}
	front := &WireFront{Fronts: [][]WireIndividual{
		{{Machine: []int32{1}, Order: []int32{0}, Objectives: []float64{0.5, 2}}},
		{},
	}}
	snap := &WireSnapshot{Generation: 9, Segments: sampleSegments()}
	abort := &WireAbort{Msg: "island 3: boom"}

	raw := encodeFrames(t, func(e *Encoder) error {
		for _, enc := range []func() error{
			func() error { return e.EncodeHello(hello) },
			func() error { return e.EncodeRestore(restore) },
			func() error { return e.EncodeRestored(restored) },
			func() error { return e.EncodeRun(run) },
			func() error { return e.EncodeElites(elites) },
			func() error { return e.EncodeReport(report) },
			func() error { return e.EncodeControl(MsgFrontReq) },
			func() error { return e.EncodeFront(front) },
			func() error { return e.EncodeControl(MsgSnapshotReq) },
			func() error { return e.EncodeSnapshot(snap) },
			func() error { return e.EncodeAbort(abort) },
			func() error { return e.EncodeControl(MsgExit) },
		} {
			if err := enc(); err != nil {
				return err
			}
		}
		return nil
	})

	var recv int
	dec := NewDecoder(bytes.NewReader(raw), func(n int) { recv += n })
	check := func(want any, got any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("decode frame %d: %v", dec.Frame(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: got %+v, want %+v", dec.Frame(), got, want)
		}
	}
	for i := 0; ; i++ {
		typ, payload, err := dec.Next()
		if err == io.EOF {
			if i != 12 {
				t.Fatalf("stream ended after %d frames, want 12", i)
			}
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i+1, err)
		}
		switch typ {
		case MsgHello:
			m, err := DecodeHello(payload)
			check(hello, m, err)
		case MsgRestore:
			m, err := DecodeRestore(payload)
			check(restore, m, err)
		case MsgRestored:
			m, err := DecodeRestored(payload)
			check(restored, m, err)
		case MsgRun:
			m, err := DecodeRun(payload)
			check(run, m, err)
		case MsgElites:
			m, err := DecodeElites(payload)
			check(elites, m, err)
		case MsgReport:
			m, err := DecodeReport(payload)
			check(report, m, err)
		case MsgFrontReq:
			if err := DecodeControl(typ, payload); err != nil {
				t.Fatalf("front-req: %v", err)
			}
		case MsgFront:
			m, err := DecodeFront(payload)
			check(front, m, err)
		case MsgSnapshotReq:
			if err := DecodeControl(typ, payload); err != nil {
				t.Fatalf("snapshot-req: %v", err)
			}
		case MsgSnapshot:
			m, err := DecodeSnapshot(payload)
			check(snap, m, err)
		case MsgAbort:
			m, err := DecodeAbort(payload)
			check(abort, m, err)
		case MsgExit:
			if err := DecodeControl(typ, payload); err != nil {
				t.Fatalf("exit: %v", err)
			}
		}
	}
	if recv != len(raw) {
		t.Fatalf("decoder byte hook saw %d bytes, stream has %d", recv, len(raw))
	}
}

// TestWireEncoderByteHook verifies the telemetry hook observes full
// frame sizes.
func TestWireEncoderByteHook(t *testing.T) {
	var buf bytes.Buffer
	var sent int
	e := NewEncoder(&buf, func(n int) { sent += n })
	if err := e.EncodeRun(&WireRun{Generations: 1}); err != nil {
		t.Fatal(err)
	}
	if sent != buf.Len() || sent != 13 {
		t.Fatalf("hook saw %d bytes, stream has %d (want 13)", sent, buf.Len())
	}
}

// TestWireTruncatedFrames feeds every proper prefix of a valid stream
// to the decoder: each must fail with a *WireError wrapping
// ErrTruncated (or hit a clean EOF exactly at a frame boundary).
func TestWireTruncatedFrames(t *testing.T) {
	raw := encodeFrames(t, func(e *Encoder) error {
		return e.EncodeElites(&WireElites{Tick: 1, From: 2, Inds: []WireIndividual{
			{Machine: []int32{3, 4}, Order: []int32{1, 0}, Objectives: []float64{2.5}},
		}})
	})
	for cut := 0; cut < len(raw); cut++ {
		_, _, err := NewDecoder(bytes.NewReader(raw[:cut]), nil).Next()
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("cut 0: err %v, want clean io.EOF", err)
			}
			continue
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: err %v, want ErrTruncated", cut, err)
		}
		var werr *WireError
		if !errors.As(err, &werr) {
			t.Fatalf("cut %d: err %T is not a *WireError", cut, err)
		}
		if werr.Frame != 1 {
			t.Fatalf("cut %d: frame index %d, want 1", cut, werr.Frame)
		}
	}
}

// TestWireTruncatedPayloads hands every proper prefix of each message's
// payload to its decode function: all must report ErrTruncated, none
// may panic or over-allocate.
func TestWireTruncatedPayloads(t *testing.T) {
	cases := []struct {
		name string
		typ  MsgType
		enc  func(e *Encoder) error
		dec  func(p []byte) error
	}{
		{"hello", MsgHello, func(e *Encoder) error { return e.EncodeHello(sampleHello()) },
			func(p []byte) error { _, err := DecodeHello(p); return err }},
		{"restore", MsgRestore,
			func(e *Encoder) error {
				return e.EncodeRestore(&WireRestore{Generation: 1, Lo: 0, Segments: sampleSegments()})
			},
			func(p []byte) error { _, err := DecodeRestore(p); return err }},
		{"elites", MsgElites,
			func(e *Encoder) error {
				return e.EncodeElites(&WireElites{Inds: []WireIndividual{
					{Machine: []int32{1, 2}, Order: []int32{0, 1}, Objectives: []float64{3}},
				}})
			},
			func(p []byte) error { _, err := DecodeElites(p); return err }},
		{"report", MsgReport,
			func(e *Encoder) error {
				return e.EncodeReport(&WireReport{Ticks: [][]WireShardTick{{{FullEvals: 9}}}})
			},
			func(p []byte) error { _, err := DecodeReport(p); return err }},
		{"front", MsgFront,
			func(e *Encoder) error {
				return e.EncodeFront(&WireFront{Fronts: [][]WireIndividual{
					{{Machine: []int32{1}, Order: []int32{0}, Objectives: []float64{1, 2}}},
				}})
			},
			func(p []byte) error { _, err := DecodeFront(p); return err }},
		{"snapshot", MsgSnapshot,
			func(e *Encoder) error {
				return e.EncodeSnapshot(&WireSnapshot{Generation: 2, Segments: sampleSegments()})
			},
			func(p []byte) error { _, err := DecodeSnapshot(p); return err }},
		{"abort", MsgAbort,
			func(e *Encoder) error { return e.EncodeAbort(&WireAbort{Msg: "bad"}) },
			func(p []byte) error { _, err := DecodeAbort(p); return err }},
	}
	for _, tc := range cases {
		raw := encodeFrames(t, tc.enc)
		payload := raw[5:]
		for cut := 0; cut < len(payload); cut++ {
			err := tc.dec(payload[:cut])
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s: cut %d: err %v, want ErrTruncated", tc.name, cut, err)
			}
			var werr *WireError
			if !errors.As(err, &werr) || werr.Msg != tc.typ {
				t.Fatalf("%s: cut %d: err %v lacks message type %v", tc.name, cut, err, tc.typ)
			}
		}
	}
}

// TestWireTrailingGarbage appends stray bytes inside a frame's payload
// (adjusting the length prefix so framing stays valid): every decode
// function must reject the leftovers.
func TestWireTrailingGarbage(t *testing.T) {
	cases := []struct {
		name string
		enc  func(e *Encoder) error
		dec  func(p []byte) error
	}{
		{"hello", func(e *Encoder) error { return e.EncodeHello(sampleHello()) },
			func(p []byte) error { _, err := DecodeHello(p); return err }},
		{"run", func(e *Encoder) error { return e.EncodeRun(&WireRun{Generations: 2}) },
			func(p []byte) error { _, err := DecodeRun(p); return err }},
		{"elites", func(e *Encoder) error { return e.EncodeElites(&WireElites{}) },
			func(p []byte) error { _, err := DecodeElites(p); return err }},
		{"restored", func(e *Encoder) error { return e.EncodeRestored(&WireRestored{}) },
			func(p []byte) error { _, err := DecodeRestored(p); return err }},
		{"control", func(e *Encoder) error { return e.EncodeControl(MsgExit) },
			func(p []byte) error { return DecodeControl(MsgExit, p) }},
		{"abort", func(e *Encoder) error { return e.EncodeAbort(&WireAbort{Msg: "x"}) },
			func(p []byte) error { _, err := DecodeAbort(p); return err }},
	}
	for _, tc := range cases {
		raw := encodeFrames(t, tc.enc)
		payload := append(append([]byte{}, raw[5:]...), 0xEE)
		err := tc.dec(payload)
		if !errors.Is(err, ErrTrailingGarbage) {
			t.Fatalf("%s: err %v, want ErrTrailingGarbage", tc.name, err)
		}
		var werr *WireError
		if !errors.As(err, &werr) {
			t.Fatalf("%s: err %T is not a *WireError", tc.name, err)
		}
	}
}

// TestWireHeaderRejection covers the decoder's header-level failures:
// unknown type bytes (including 0) and oversized length prefixes.
func TestWireHeaderRejection(t *testing.T) {
	frame := func(n uint32, typ byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, n)
		return append(b, typ)
	}
	for _, typ := range []byte{0, byte(numMsgTypes), 200, 255} {
		_, _, err := NewDecoder(bytes.NewReader(frame(0, typ)), nil).Next()
		if !errors.Is(err, ErrUnknownMessage) {
			t.Fatalf("type byte %d: err %v, want ErrUnknownMessage", typ, err)
		}
	}
	_, _, err := NewDecoder(bytes.NewReader(frame(MaxFrame+1, byte(MsgRun))), nil).Next()
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized prefix: err %v, want ErrFrameTooLarge", err)
	}
	var werr *WireError
	if !errors.As(err, &werr) || werr.Msg != MsgRun {
		t.Fatalf("oversized prefix: err %v lacks message type", err)
	}
	// A hostile length prefix below the cap but far beyond the stream
	// must fail as truncated, not allocate-and-hang.
	_, _, err = NewDecoder(bytes.NewReader(frame(1<<20, byte(MsgElites))), nil).Next()
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("short stream: err %v, want ErrTruncated", err)
	}
}

// TestWireBadPayloads covers schema-valid framing around impossible
// content.
func TestWireBadPayloads(t *testing.T) {
	badHello := sampleHello()
	badHello.Version = WireVersion + 1
	raw := encodeFrames(t, func(e *Encoder) error { return e.EncodeHello(badHello) })
	if _, err := DecodeHello(raw[5:]); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("version mismatch: err %v, want ErrBadPayload", err)
	}

	shardHello := sampleHello()
	shardHello.Hi = shardHello.Lo // empty shard
	shardHello.Baselines = nil
	raw = encodeFrames(t, func(e *Encoder) error { return e.EncodeHello(shardHello) })
	if _, err := DecodeHello(raw[5:]); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("empty shard: err %v, want ErrBadPayload", err)
	}

	raw = encodeFrames(t, func(e *Encoder) error { return e.EncodeRun(&WireRun{Generations: 0}) })
	if _, err := DecodeRun(raw[5:]); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("zero generations: err %v, want ErrBadPayload", err)
	}

	raw = encodeFrames(t, func(e *Encoder) error { return e.EncodeElites(&WireElites{Tick: -1}) })
	if _, err := DecodeElites(raw[5:]); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("negative tick: err %v, want ErrBadPayload", err)
	}
}

// FuzzWireCodec drives the full decode surface with arbitrary bytes.
// Every outcome must be a clean io.EOF, a structured *WireError, or a
// successfully decoded message that re-encodes to an identical frame
// (the round-trip property that makes the wire deterministic). Elites
// also decode into a dirty reused target, which must match the fresh
// decode.
func FuzzWireCodec(f *testing.F) {
	// Seed with one valid frame of every message type plus mutation bait.
	seed := func(fn func(e *Encoder) error) {
		var buf bytes.Buffer
		if err := fn(NewEncoder(&buf, nil)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(func(e *Encoder) error { return e.EncodeHello(sampleHello()) })
	seed(func(e *Encoder) error {
		return e.EncodeRestore(&WireRestore{Generation: 3, Lo: 1, Segments: sampleSegments()})
	})
	seed(func(e *Encoder) error { return e.EncodeRestored(&WireRestored{}) })
	seed(func(e *Encoder) error { return e.EncodeRun(&WireRun{Generations: 100}) })
	seed(func(e *Encoder) error {
		return e.EncodeElites(&WireElites{Tick: 25, From: 3, Inds: []WireIndividual{
			{Machine: []int32{0, 5, -3}, Order: []int32{2, 0, 1}, Objectives: []float64{0.25, math.Inf(1)}},
		}})
	})
	seed(func(e *Encoder) error {
		return e.EncodeReport(&WireReport{Ticks: [][]WireShardTick{{{FullEvals: 1}, {DeltaEvals: 2}}}})
	})
	seed(func(e *Encoder) error { return e.EncodeControl(MsgFrontReq) })
	seed(func(e *Encoder) error {
		return e.EncodeFront(&WireFront{Fronts: [][]WireIndividual{{{Machine: []int32{9}, Order: []int32{0}, Objectives: []float64{1, 2}}}}})
	})
	seed(func(e *Encoder) error { return e.EncodeControl(MsgSnapshotReq) })
	seed(func(e *Encoder) error {
		return e.EncodeSnapshot(&WireSnapshot{Generation: 8, Segments: sampleSegments()})
	})
	seed(func(e *Encoder) error { return e.EncodeAbort(&WireAbort{Msg: "fuzz"}) })
	seed(func(e *Encoder) error { return e.EncodeControl(MsgExit) })
	f.Add([]byte{})
	f.Add([]byte{255, 255, 255, 255, 5})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data), nil)
		for {
			typ, payload, err := dec.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				var werr *WireError
				if !errors.As(err, &werr) {
					t.Fatalf("frame error is %T, want *WireError: %v", err, err)
				}
				return
			}
			var reenc func(e *Encoder) error
			switch typ {
			case MsgHello:
				m, err := DecodeHello(payload)
				if err != nil {
					requireWireError(t, err)
					return
				}
				reenc = func(e *Encoder) error { return e.EncodeHello(m) }
			case MsgRestore:
				m, err := DecodeRestore(payload)
				if err != nil {
					requireWireError(t, err)
					return
				}
				reenc = func(e *Encoder) error { return e.EncodeRestore(m) }
			case MsgRestored:
				m, err := DecodeRestored(payload)
				if err != nil {
					requireWireError(t, err)
					return
				}
				reenc = func(e *Encoder) error { return e.EncodeRestored(m) }
			case MsgRun:
				m, err := DecodeRun(payload)
				if err != nil {
					requireWireError(t, err)
					return
				}
				reenc = func(e *Encoder) error { return e.EncodeRun(m) }
			case MsgElites:
				m, err := DecodeElites(payload)
				// The hot paths decode into reused targets: a dirty one
				// must accept and reject exactly what a fresh decode
				// does, and hold the same message, bit for bit (NaN
				// objectives included), so it re-encodes to the frame.
				reused := dirtyElites()
				rerr := DecodeElitesInto(payload, reused)
				if (err == nil) != (rerr == nil) {
					t.Fatalf("fresh decode error %v, reused decode error %v", err, rerr)
				}
				if err != nil {
					requireWireError(t, err)
					requireWireError(t, rerr)
					return
				}
				var rbuf bytes.Buffer
				if err := NewEncoder(&rbuf, nil).EncodeElites(reused); err != nil {
					t.Fatalf("re-encode reused decode: %v", err)
				}
				if !bytes.Equal(rbuf.Bytes()[5:], payload) {
					t.Fatalf("reused decode %+v re-encodes differently from the frame", reused)
				}
				reenc = func(e *Encoder) error { return e.EncodeElites(m) }
			case MsgReport:
				m, err := DecodeReport(payload)
				if err != nil {
					requireWireError(t, err)
					return
				}
				reenc = func(e *Encoder) error { return e.EncodeReport(m) }
			case MsgFrontReq, MsgSnapshotReq, MsgExit:
				if err := DecodeControl(typ, payload); err != nil {
					requireWireError(t, err)
					return
				}
				ct := typ
				reenc = func(e *Encoder) error { return e.EncodeControl(ct) }
			case MsgFront:
				m, err := DecodeFront(payload)
				if err != nil {
					requireWireError(t, err)
					return
				}
				reenc = func(e *Encoder) error { return e.EncodeFront(m) }
			case MsgSnapshot:
				m, err := DecodeSnapshot(payload)
				if err != nil {
					requireWireError(t, err)
					return
				}
				reenc = func(e *Encoder) error { return e.EncodeSnapshot(m) }
			case MsgAbort:
				m, err := DecodeAbort(payload)
				if err != nil {
					requireWireError(t, err)
					return
				}
				reenc = func(e *Encoder) error { return e.EncodeAbort(m) }
			}
			// Canonical re-encode must reproduce the accepted frame
			// byte for byte (length prefix + type + payload).
			var buf bytes.Buffer
			if err := reenc(NewEncoder(&buf, nil)); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			got := buf.Bytes()
			if MsgType(got[4]) != typ || !bytes.Equal(got[5:], payload) {
				t.Fatalf("re-encode differs for %v:\n got %v\nwant %v", typ, got[5:], payload)
			}
		}
	})
}

func requireWireError(t *testing.T, err error) {
	t.Helper()
	var werr *WireError
	if !errors.As(err, &werr) {
		t.Fatalf("decode error is %T, want *WireError: %v", err, err)
	}
}
