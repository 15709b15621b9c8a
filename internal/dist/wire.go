// Package dist distributes an island-model NSGA-II run across worker
// processes (DESIGN.md §15). A parent process forks N workers over
// socketpairs; each worker runs a contiguous shard of the island ring
// with the logical-clock schedule (internal/nsga2), and
// the ring's boundary edges are carried over the wire by a
// deterministic, length-framed binary codec. The parent routes elite
// migrations between workers, aggregates their telemetry shards, and
// merges their fronts — bit-identical to the in-process run.
//
// Wire format: every frame is
//
//	[u32 payload length, little-endian] [u8 message type] [payload]
//
// and every payload field is fixed-width little-endian (no varints, no
// gob/JSON on the hot path). Genome genes travel as uint32 two's-
// complement images of their int32 values; objectives as IEEE-754
// bits. The codec rejects truncated frames, trailing payload garbage,
// and unknown message types with structured *WireError values.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// WireVersion is the protocol version carried in every MsgHello; the
// parent refuses workers speaking a different version.
const WireVersion = 4

// MaxFrame bounds a frame's payload length. Far above any real
// migration payload, it keeps a corrupt or adversarial length prefix
// from provoking a giant allocation.
const MaxFrame = 1 << 30

// MsgType identifies a frame's payload schema.
type MsgType uint8

const (
	// MsgHello is the worker's handshake: protocol version, shard
	// range, and per-island telemetry baselines.
	MsgHello MsgType = iota + 1
	// MsgRestore carries islands-snapshot segments from parent to
	// worker for a cross-process resume.
	MsgRestore
	// MsgRestored acknowledges a restore with fresh baselines.
	MsgRestored
	// MsgRun starts a run of a given number of generations.
	MsgRun
	// MsgElites is one boundary ring edge's migration payload at one
	// logical tick (worker → parent → destination worker).
	MsgElites
	// MsgReport ends a worker's run: per-tick per-island counter
	// shards.
	MsgReport
	// MsgFrontReq asks a worker for its islands' rank-1 fronts.
	MsgFrontReq
	// MsgFront answers MsgFrontReq.
	MsgFront
	// MsgSnapshotReq asks a worker for its islands' snapshot segments.
	MsgSnapshotReq
	// MsgSnapshot answers MsgSnapshotReq.
	MsgSnapshot
	// MsgAbort reports a fatal worker error to the parent.
	MsgAbort
	// MsgExit asks a worker to shut down cleanly.
	MsgExit
)

// numMsgTypes is one past the last valid MsgType.
const numMsgTypes = int(MsgExit) + 1

// String names the message type for errors and logs.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgRestore:
		return "restore"
	case MsgRestored:
		return "restored"
	case MsgRun:
		return "run"
	case MsgElites:
		return "elites"
	case MsgReport:
		return "report"
	case MsgFrontReq:
		return "front-req"
	case MsgFront:
		return "front"
	case MsgSnapshotReq:
		return "snapshot-req"
	case MsgSnapshot:
		return "snapshot"
	case MsgAbort:
		return "abort"
	case MsgExit:
		return "exit"
	default:
		return fmt.Sprintf("msg(%d)", uint8(t))
	}
}

// Sentinel causes for wire failures, reachable through errors.Is on a
// *WireError.
var (
	// ErrTruncated reports a stream that ended inside a frame header or
	// payload, or a payload shorter than its message's schema.
	ErrTruncated = errors.New("truncated frame")
	// ErrTrailingGarbage reports payload bytes left over after a
	// message's schema was fully decoded.
	ErrTrailingGarbage = errors.New("trailing garbage after payload")
	// ErrFrameTooLarge reports a length prefix beyond MaxFrame.
	ErrFrameTooLarge = errors.New("frame exceeds size limit")
	// ErrUnknownMessage reports a type byte outside the protocol.
	ErrUnknownMessage = errors.New("unknown message type")
	// ErrBadPayload reports schema-valid framing around nonsense
	// content (impossible counts, version mismatches).
	ErrBadPayload = errors.New("malformed payload")
	// ErrUnexpectedMessage reports a well-formed message arriving where
	// the protocol state machine does not allow it.
	ErrUnexpectedMessage = errors.New("unexpected message")
)

// WireError is the structured decode failure, mirroring obs.TraceError:
// the 1-based frame index in the stream (0 when unknown), the message
// type being decoded (0 when the header itself failed), and the
// underlying cause.
type WireError struct {
	Frame int
	Msg   MsgType
	Err   error
}

func (e *WireError) Error() string {
	switch {
	case e.Frame > 0 && e.Msg != 0:
		return fmt.Sprintf("dist: frame %d (%s): %v", e.Frame, e.Msg, e.Err)
	case e.Frame > 0:
		return fmt.Sprintf("dist: frame %d: %v", e.Frame, e.Err)
	case e.Msg != 0:
		return fmt.Sprintf("dist: %s: %v", e.Msg, e.Err)
	default:
		return fmt.Sprintf("dist: %v", e.Err)
	}
}

func (e *WireError) Unwrap() error { return e.Err }

// frameErr builds a *WireError for a framing failure. Error
// construction lives outside the hotpath bodies so steady-state frames
// never touch fmt; every caller is on a path that terminates the
// stream.
func frameErr(frame int, t MsgType, format string, args ...any) error {
	return &WireError{Frame: frame, Msg: t, Err: fmt.Errorf(format, args...)}
}

// Little-endian append helpers. All payload content flows through
// these, so the byte layout is fixed by construction.

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// wireReader is a bounds-checked cursor over one frame's payload.
// Reads past the end latch the sticky truncation flag instead of
// panicking, so decode functions can check once at the end.
type wireReader struct {
	buf   []byte
	off   int
	short bool
}

//detlint:hotpath
func (r *wireReader) u32() uint32 {
	if r.off+4 > len(r.buf) {
		r.short = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

//detlint:hotpath
func (r *wireReader) u64() uint64 {
	if r.off+8 > len(r.buf) {
		r.short = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// remaining reports the undecoded byte count.
func (r *wireReader) remaining() int { return len(r.buf) - r.off }

// finish validates that the payload was consumed exactly: no truncation
// latched, no trailing bytes left.
func (r *wireReader) finish(t MsgType) error {
	if r.short {
		return &WireError{Msg: t, Err: fmt.Errorf("payload ends early at offset %d: %w", r.off, ErrTruncated)}
	}
	if r.off != len(r.buf) {
		return &WireError{Msg: t, Err: fmt.Errorf("%d byte(s) after payload: %w", len(r.buf)-r.off, ErrTrailingGarbage)}
	}
	return nil
}

// Encoder frames and writes wire messages. Not safe for concurrent use;
// connections serialize writers externally.
type Encoder struct {
	w io.Writer
	// buf is the reused frame buffer: header then payload.
	buf []byte
	// onBytes, when non-nil, observes every written frame's size
	// (telemetry hook; never alters the stream).
	onBytes func(n int)
}

// NewEncoder returns an Encoder writing frames to w. onBytes may be
// nil.
func NewEncoder(w io.Writer, onBytes func(n int)) *Encoder {
	return &Encoder{w: w, onBytes: onBytes}
}

// writeFrame patches the header around the payload staged in e.buf
// (which must begin with 5 reserved header bytes) and writes the frame.
//
//detlint:hotpath
func (e *Encoder) writeFrame(t MsgType) error {
	payload := len(e.buf) - 5
	if payload > MaxFrame {
		return frameErr(0, t, "payload of %d bytes: %w", payload, ErrFrameTooLarge)
	}
	binary.LittleEndian.PutUint32(e.buf[:4], uint32(payload))
	e.buf[4] = byte(t)
	if _, err := e.w.Write(e.buf); err != nil {
		return &WireError{Msg: t, Err: err}
	}
	if e.onBytes != nil {
		e.onBytes(len(e.buf))
	}
	return nil
}

// begin resets the frame buffer, reserving the header bytes.
//
//detlint:hotpath
func (e *Encoder) begin() {
	e.buf = e.buf[:0]
	e.buf = append(e.buf, 0, 0, 0, 0, 0)
}

// Decoder reads and unframes wire messages. The returned payload slice
// is valid until the next call. Not safe for concurrent use.
type Decoder struct {
	r     io.Reader
	buf   []byte
	head  [5]byte
	frame int
	// onBytes, when non-nil, observes every read frame's size.
	onBytes func(n int)
}

// NewDecoder returns a Decoder reading frames from r. onBytes may be
// nil.
func NewDecoder(r io.Reader, onBytes func(n int)) *Decoder {
	return &Decoder{r: r, onBytes: onBytes}
}

// Frame returns the number of frames fully read so far.
func (d *Decoder) Frame() int { return d.frame }

// Next reads one frame and returns its type and payload. A clean
// stream end at a frame boundary returns io.EOF; an end inside a frame
// returns a *WireError wrapping ErrTruncated.
//
//detlint:hotpath
func (d *Decoder) Next() (MsgType, []byte, error) {
	if _, err := io.ReadFull(d.r, d.head[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, frameErr(d.frame+1, 0, "header: %w (%w)", err, ErrTruncated)
	}
	n := binary.LittleEndian.Uint32(d.head[:4])
	t := MsgType(d.head[4])
	if int(t) <= 0 || int(t) >= numMsgTypes {
		return 0, nil, frameErr(d.frame+1, 0, "type byte %d: %w", d.head[4], ErrUnknownMessage)
	}
	if n > MaxFrame {
		return 0, nil, frameErr(d.frame+1, t, "length prefix %d: %w", n, ErrFrameTooLarge)
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		return 0, nil, frameErr(d.frame+1, t, "payload: %w (%w)", err, ErrTruncated)
	}
	d.frame++
	if d.onBytes != nil {
		d.onBytes(5 + int(n))
	}
	return t, d.buf, nil
}
