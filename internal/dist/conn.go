package dist

import (
	"fmt"
	"io"
	"sync"
)

// Conn is one framed wire connection: an Encoder and Decoder over the
// same stream. Writes are serialized by an internal mutex (the
// coordinator's forwarding goroutines and control path share a worker's
// socket); reads are not locked — the protocol guarantees a single
// reader at a time, with ownership handed off between the control path
// and a run's boundary-edge goroutine at run boundaries.
type Conn struct {
	rw  io.ReadWriteCloser
	enc *Encoder
	dec *Decoder
	wmu sync.Mutex
}

// NewConn wraps a stream. onBytes, when non-nil, observes every frame's
// size in both directions (telemetry hook).
func NewConn(rw io.ReadWriteCloser, onBytes func(n int)) *Conn {
	return &Conn{rw: rw, enc: NewEncoder(rw, onBytes), dec: NewDecoder(rw, onBytes)}
}

// Close closes the underlying stream. Safe to call concurrently with
// blocked reads and writes, which fail over to errors.
func (c *Conn) Close() error { return c.rw.Close() }

// Next reads one frame. Single reader at a time.
func (c *Conn) Next() (MsgType, []byte, error) { return c.dec.Next() }

// SendHello writes a handshake under the write lock.
func (c *Conn) SendHello(m *WireHello) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.enc.EncodeHello(m)
}

// SendRun writes a run request under the write lock.
func (c *Conn) SendRun(m *WireRun) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.enc.EncodeRun(m)
}

// SendElites writes one migration payload under the write lock. This is
// the per-tick hot path.
//
//detlint:hotpath
func (c *Conn) SendElites(m *WireElites) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.enc.EncodeElites(m)
}

// SendReport writes an end-of-run report under the write lock.
func (c *Conn) SendReport(m *WireReport) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.enc.EncodeReport(m)
}

// SendControl writes an empty control frame under the write lock.
func (c *Conn) SendControl(t MsgType) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.enc.EncodeControl(t)
}

// SendFront writes a front reply under the write lock.
func (c *Conn) SendFront(m *WireFront) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.enc.EncodeFront(m)
}

// SendAbort writes a failure report under the write lock.
func (c *Conn) SendAbort(m *WireAbort) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.enc.EncodeAbort(m)
}

// expectReply reads the next frame, requiring the given type. A worker
// abort is surfaced as its carried error; a clean stream end counts as
// truncation because a reply was owed.
func (c *Conn) expectReply(want MsgType) ([]byte, error) {
	typ, payload, err := c.dec.Next()
	if err == io.EOF {
		return nil, &WireError{Msg: want, Err: fmt.Errorf("connection closed awaiting reply: %w", ErrTruncated)}
	}
	if err != nil {
		return nil, err
	}
	if typ == MsgAbort && want != MsgAbort {
		m, aerr := DecodeAbort(payload)
		if aerr != nil {
			return nil, aerr
		}
		return nil, fmt.Errorf("dist: worker aborted: %s", m.Msg)
	}
	if typ != want {
		return nil, &WireError{Frame: c.dec.Frame(), Msg: typ,
			Err: fmt.Errorf("awaiting %s: %w", want, ErrUnexpectedMessage)}
	}
	return payload, nil
}
