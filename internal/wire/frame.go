// Package wire implements Jiffy's framed binary message protocol and
// its transports. The paper's implementation uses Apache Thrift with
// asynchronous framed IO (§4.2.2); this package plays the same role
// using only the standard library: fixed-header frames multiplexing
// many in-flight requests over one connection, plus server-push frames
// for the notification interface.
//
// Frame layout on the wire (big endian):
//
//	u32  length of the remainder (header after length + payload)
//	u8   kind        (request / response / push)
//	u64  seq         (request sequence number, or subscription id for push)
//	u16  method      (method identifier; 0 for responses and pushes)
//	u8   code        (error code; meaningful on responses)
//	...  payload
//
// The write path is batching-aware: WriteFrames coalesces many frames
// into a single buffered flush, and every write group-commits — when
// several goroutines write concurrently over one session, only the
// last writer in the convoy flushes, so N concurrent single-frame
// writes cost far fewer than N flushes (see DESIGN.md, "Batched hot
// path").
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"jiffy/internal/core"
)

// Kind discriminates frame roles.
type Kind uint8

// Frame kinds.
const (
	// KindRequest carries a client→server call.
	KindRequest Kind = iota + 1
	// KindResponse carries the server's reply, matched by seq.
	KindResponse
	// KindPush carries an unsolicited server→client notification; seq
	// holds the subscription identifier.
	KindPush
	// KindTraceExt is the optional frame-header extension carrying span
	// propagation state for the request with the same seq, written
	// immediately before it in the same flush. Wire-compatible: peers
	// that predate it ignore non-request/response/push frames, so a
	// traced client can talk to an untraced server and vice versa.
	KindTraceExt
)

// headerLen is the fixed header size after the length prefix.
const headerLen = 1 + 8 + 2 + 1

// MaxFrameSize bounds a single frame (header + payload). Large objects
// (up to the 128MB block size) must fit; we allow 256MB.
const MaxFrameSize = 256 * core.MB

// InlineFrameThreshold is the payload size at or below which the
// small-frame fast path applies: senders encode header+payload into one
// pooled contiguous buffer and issue a single buffered write
// (AppendFrame + WriteBytes), and ReadFrameReused decodes arriving
// frames into connection-owned storage instead of allocating a Frame
// and payload per message. The threshold covers every single-op
// data-plane request/response (key + small value + codec framing) while
// keeping the per-connection scratch buffer small; bulk transfers fall
// through to the general vectored/chunked paths. The encoding is
// identical on the wire — old peers cannot tell which path produced a
// frame.
const InlineFrameThreshold = 4 * core.KB

// readAllocChunk bounds the upfront allocation for an incoming frame.
// Frames claiming more are read in chunks, so a garbage length prefix
// cannot force a huge allocation before the stream proves it actually
// has the bytes. The bound sits above the largest hot-path frame — a
// 1MiB file read plus vector prefixes — because a frame a few bytes
// over the chunk size would otherwise pay a full extra allocation and
// copy when the chunked growth rounds up to the true length.
const readAllocChunk = core.MB + 64*core.KB

// Frame is one protocol message.
type Frame struct {
	Kind    Kind
	Seq     uint64
	Method  uint16
	Code    core.ErrorCode
	Payload []byte

	// PayloadVec carries additional payload segments written after
	// Payload by scatter-gather IO — the zero-copy path for bodies that
	// alias long-lived block memory. It is a write-side construct only:
	// frames always arrive from ReadFrame with a single contiguous
	// Payload.
	PayloadVec [][]byte

	// Release, when non-nil, is invoked exactly once when the
	// connection is done with the frame's payload memory — after the
	// bytes have been staged into the write buffer or handed to the
	// socket, on success and error paths alike. Handlers use it to
	// unpin block memory aliased by Payload/PayloadVec.
	Release Releaser

	// buf is the large-class receive buffer Payload aliases, set only on
	// frames from ReadFramePooled; RecycleFrame hands it back.
	buf []byte
}

// Releaser is the hook a frame's Release runs. Its implementations are
// pointers that already exist — a server's pooled op scratch, a file
// chunk's lock — so carrying one costs nothing, where a closure would
// cost an object per frame.
type Releaser interface{ Release() }

// PayloadLen is the total payload size across Payload and PayloadVec.
func (f *Frame) PayloadLen() int {
	n := len(f.Payload)
	for _, p := range f.PayloadVec {
		n += len(p)
	}
	return n
}

// release fires the Release hook at most once.
func (f *Frame) release() {
	if f.Release != nil {
		r := f.Release
		f.Release = nil
		r.Release()
	}
}

// Conn wraps a net.Conn with buffered framed IO. Reads must come from a
// single goroutine; writes are serialized internally and may come from
// many goroutines.
type Conn struct {
	nc net.Conn
	r  *bufio.Reader

	// Read-side scratch, owned by the single reader goroutine: the
	// length prefix, the Frame every ReadFrameReused and ReadFramePooled
	// decodes into, and the payload storage of small frames.
	rlen   [4]byte
	rframe Frame
	rbuf   []byte

	// writers counts goroutines between enter and leave — holding or
	// queued for wmu. A writer that sees other writers pending skips
	// its flush: the last member of the convoy flushes for everyone
	// (group commit).
	writers atomic.Int32

	wmu sync.Mutex
	w   *bufio.Writer
	hdr [4 + headerLen]byte
	// wscratch keeps the segment array of large vectored frames across
	// writes, and wvec is the header over it that net.Buffers.WriteTo
	// consumes — a field, so taking its address allocates nothing. Both
	// guarded by wmu.
	wscratch [][]byte
	wvec     net.Buffers

	closeOnce sync.Once
	closeErr  error
}

// NewConn wraps nc.
func NewConn(nc net.Conn) *Conn {
	return &Conn{
		nc: nc,
		r:  bufio.NewReaderSize(nc, 64*core.KB),
		w:  bufio.NewWriterSize(nc, 64*core.KB),
	}
}

// RemoteAddr exposes the peer address for logging.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// WriteFrame sends one frame: WriteFrames with a single frame.
func (c *Conn) WriteFrame(f *Frame) error { return c.WriteFrames(f) }

// WriteFrames sends frames under one lock acquisition and at most one
// flush. Safe for concurrent use. The flush is opportunistically
// coalesced: if other writers are already queued on this connection,
// the buffer is left for the last of them to flush, so concurrent
// callers sharing a session amortize flushes. Payload and PayloadVec
// are fully consumed before return and may be reused; every Release
// hook has fired by then.
func (c *Conn) WriteFrames(frames ...*Frame) error {
	if len(frames) == 0 {
		return nil
	}
	c.enter()
	var err error
	for i, f := range frames {
		if err = c.writeFrameLocked(f); err != nil {
			// The failing frame released itself; frames never staged must
			// still release so their payload memory is unpinned.
			for _, g := range frames[i+1:] {
				g.release()
			}
			break
		}
	}
	return c.leave(err)
}

// enter joins the write convoy: it takes a writer slot, then wmu.
func (c *Conn) enter() {
	c.writers.Add(1)
	c.wmu.Lock()
}

// leave ends a write begun by enter and returns its error. It drops the
// writer slot and, when the write succeeded and no other writer is
// committed to acquiring wmu, flushes — the group commit: the convoy's
// last writer always observes zero pending writers, so every staged
// frame reaches the wire. A failed write flushes nothing.
func (c *Conn) leave(err error) error {
	if c.writers.Add(-1) == 0 && err == nil {
		err = c.w.Flush()
	}
	c.wmu.Unlock()
	return err
}

// directWriteThreshold is the PayloadVec size above which the write
// path bypasses the bufio copy and hands the segments to the kernel as
// one vectored write. Below it, staging through the 64KB write buffer
// is cheaper than a syscall per frame.
const directWriteThreshold = 32 * core.KB

// writeFrameLocked stages one frame into the write buffer, or — for
// frames carrying a large PayloadVec — flushes staged bytes and writes
// the segments with scatter-gather IO (writev on TCP), so big bodies
// aliasing block memory reach the socket without an intermediate copy.
// The frame's Release hook fires before return on every path. Caller
// holds wmu.
func (c *Conn) writeFrameLocked(f *Frame) error {
	defer f.release()
	vecLen := 0
	for _, p := range f.PayloadVec {
		vecLen += len(p)
	}
	n := headerLen + len(f.Payload) + vecLen
	if n > MaxFrameSize {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit %d: %w", n, MaxFrameSize, core.ErrTooLarge)
	}
	binary.BigEndian.PutUint32(c.hdr[0:4], uint32(n))
	c.hdr[4] = byte(f.Kind)
	binary.BigEndian.PutUint64(c.hdr[5:13], f.Seq)
	binary.BigEndian.PutUint16(c.hdr[13:15], f.Method)
	c.hdr[15] = byte(f.Code)
	if _, err := c.w.Write(c.hdr[:]); err != nil {
		return err
	}
	if _, err := c.w.Write(f.Payload); err != nil {
		return err
	}
	if vecLen == 0 {
		return nil
	}
	if c.nc != nil && vecLen >= directWriteThreshold {
		if err := c.w.Flush(); err != nil {
			return err
		}
		// net.Buffers.WriteTo consumes the slice it is called on, so it
		// gets wvec; wscratch keeps the array for the next frame and
		// drops the segment references once the write is over.
		c.wscratch = append(c.wscratch[:0], f.PayloadVec...)
		c.wvec = c.wscratch
		_, err := c.wvec.WriteTo(c.nc)
		clear(c.wscratch)
		c.wvec = nil
		return err
	}
	for _, p := range f.PayloadVec {
		if _, err := c.w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// AppendFrame appends f's wire encoding (length prefix, header,
// payload) to dst. The inline small-frame fast path encodes into a
// pooled buffer with it and sends the result through WriteBytes as one
// contiguous write; it also serves tests and fuzzers. f is not
// retained, so callers may pass a stack-allocated frame.
func AppendFrame(dst []byte, f *Frame) []byte {
	var hdr [4 + headerLen]byte
	n := headerLen + f.PayloadLen()
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	hdr[4] = byte(f.Kind)
	binary.BigEndian.PutUint64(hdr[5:13], f.Seq)
	binary.BigEndian.PutUint16(hdr[13:15], f.Method)
	hdr[15] = byte(f.Code)
	dst = append(dst, hdr[:]...)
	dst = append(dst, f.Payload...)
	for _, p := range f.PayloadVec {
		dst = append(dst, p...)
	}
	return dst
}

// WriteBytes stages pre-encoded frame bytes (one or more AppendFrame
// encodings) and participates in the same group-commit flush as
// WriteFrames, so fast-path and general writers coalesce into one convoy.
// Safe for concurrent use. The caller owns b again on return.
func (c *Conn) WriteBytes(b []byte) error {
	c.enter()
	_, err := c.w.Write(b)
	return c.leave(err)
}

// parseFrameInto decodes the post-length-prefix portion of a frame into
// f without allocating, overwriting every field. buf must be at least
// headerLen bytes (the caller validated the length prefix); f's payload
// aliases buf.
func parseFrameInto(f *Frame, buf []byte) error {
	if len(buf) < headerLen {
		return fmt.Errorf("wire: frame shorter than header (%d bytes)", len(buf))
	}
	*f = Frame{
		Kind:   Kind(buf[0]),
		Seq:    binary.BigEndian.Uint64(buf[1:9]),
		Method: binary.BigEndian.Uint16(buf[9:11]),
		Code:   core.ErrorCode(buf[11]),
	}
	if len(buf) > headerLen {
		f.Payload = buf[headerLen:]
	}
	switch f.Kind {
	case KindRequest, KindResponse, KindPush, KindTraceExt:
	default:
		return fmt.Errorf("wire: invalid frame kind %d", f.Kind)
	}
	return nil
}

// Trace-extension payload layout: u8 version, u64 trace ID, u64 span
// ID. Decoders ignore trailing bytes so future versions can append
// fields without breaking old peers.
const (
	traceExtVersion = 1
	traceExtLen     = 1 + 8 + 8
)

// EncodeTraceExt builds the payload of a KindTraceExt frame.
func EncodeTraceExt(trace, span uint64) []byte {
	buf := make([]byte, traceExtLen)
	buf[0] = traceExtVersion
	binary.BigEndian.PutUint64(buf[1:9], trace)
	binary.BigEndian.PutUint64(buf[9:17], span)
	return buf
}

// DecodeTraceExt parses a KindTraceExt payload. ok is false for
// unknown versions or truncated payloads (the extension is optional:
// an undecodable one is dropped, never an error).
func DecodeTraceExt(p []byte) (trace, span uint64, ok bool) {
	if len(p) < traceExtLen || p[0] != traceExtVersion {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(p[1:9]), binary.BigEndian.Uint64(p[9:17]), true
}

// readLen reads and validates the 4-byte length prefix using the
// connection's scratch (a stack [4]byte escapes through io.ReadFull and
// costs an allocation per frame).
func (c *Conn) readLen() (int, error) {
	if _, err := io.ReadFull(c.r, c.rlen[:]); err != nil {
		return 0, err
	}
	n := int(binary.BigEndian.Uint32(c.rlen[:]))
	if n < headerLen || n > MaxFrameSize {
		return 0, fmt.Errorf("wire: invalid frame length %d", n)
	}
	return n, nil
}

// ReadFrame reads the next frame. Must be called from one goroutine.
// The returned frame is freshly allocated and owned by the caller.
func (c *Conn) ReadFrame() (*Frame, error) {
	n, err := c.readLen()
	if err != nil {
		return nil, err
	}
	buf, err := c.readBody(n)
	if err != nil {
		return nil, err
	}
	f := new(Frame)
	if err := parseFrameInto(f, buf); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFrameReused reads the next frame like ReadFrame, but into
// connection-owned storage: the returned Frame is the connection's, and
// the next Read*Frame call overwrites it, so a caller that keeps a frame
// past that copies it, by value. reused reports whether the Payload is
// the connection's too. A small frame's (payload at most
// InlineFrameThreshold) is (reused true): the caller finishes with it,
// or copies what it keeps, before reading again. A larger frame's
// Payload is freshly allocated (reused false) and becomes the caller's.
// This is the receive-side half of the inline small-frame fast path:
// the steady-state cost of a small frame is one buffered read, zero
// allocations, and of a large one the payload the reader keeps.
func (c *Conn) ReadFrameReused() (f *Frame, reused bool, err error) {
	return c.readFrame(false)
}

// ReadFramePooled is ReadFrameReused for readers that can say when they
// are done with a large frame: its Payload (reused false) is a buffer
// from the large class, which the caller returns with RecycleFrame —
// on the returned frame or its copy, once — when nothing references
// the payload any more. A frame that is never recycled is simply
// collected. Servers read requests this way — a handler may not retain
// its payload past the response — while clients keep ReadFrameReused,
// because a large response's payload becomes the caller's result.
func (c *Conn) ReadFramePooled() (f *Frame, reused bool, err error) {
	return c.readFrame(true)
}

func (c *Conn) readFrame(pooled bool) (f *Frame, reused bool, err error) {
	// The frame before this one is its reader's by now: drop the
	// connection's reference to its payload before waiting for the next,
	// or an idle connection would keep a large payload alive.
	c.rframe = Frame{}
	n, err := c.readLen()
	if err != nil {
		return nil, false, err
	}
	if n <= InlineFrameThreshold+headerLen {
		if cap(c.rbuf) < n {
			c.rbuf = make([]byte, InlineFrameThreshold+headerLen)
		}
		buf := c.rbuf[:n]
		if _, err := io.ReadFull(c.r, buf); err != nil {
			return nil, false, err
		}
		if err := parseFrameInto(&c.rframe, buf); err != nil {
			return nil, false, err
		}
		return &c.rframe, true, nil
	}
	if !pooled || n > readAllocChunk {
		buf, err := c.readBody(n)
		if err != nil {
			return nil, false, err
		}
		if err := parseFrameInto(&c.rframe, buf); err != nil {
			return nil, false, err
		}
		return &c.rframe, false, nil
	}
	buf := GetLarge(n)
	if _, err := io.ReadFull(c.r, buf); err != nil {
		PutLarge(buf)
		return nil, false, err
	}
	if err := parseFrameInto(&c.rframe, buf); err != nil {
		PutLarge(buf)
		return nil, false, err
	}
	c.rframe.buf = buf
	return &c.rframe, false, nil
}

// RecycleFrame returns the receive buffer of a frame from
// ReadFramePooled to the large class and clears the frame's reference
// to it, so a second call on the same frame does nothing; so does a
// call on any other frame. A reader that copied the frame recycles the
// copy, and only the copy. The frame's Payload — and everything decoded
// as an alias of it — must not be touched afterwards.
func RecycleFrame(f *Frame) {
	if f.buf == nil {
		return
	}
	buf := f.buf
	f.buf, f.Payload = nil, nil
	PutLarge(buf)
}

// readBody reads the n-byte remainder of a frame into a fresh buffer.
func (c *Conn) readBody(n int) ([]byte, error) {
	var buf []byte
	if n <= readAllocChunk {
		buf = make([]byte, n)
		if _, err := io.ReadFull(c.r, buf); err != nil {
			return nil, err
		}
	} else {
		// Chunked read: the allocation grows only as the bytes actually
		// arrive, so a forged length cannot balloon memory. Growth
		// doubles but is capped at exactly n — append's overshoot would
		// cost a 1 MiB frame an extra 2 MiB allocation.
		buf = make([]byte, 0, readAllocChunk)
		for len(buf) < n {
			if len(buf) == cap(buf) {
				grown := cap(buf) * 2
				if grown > n {
					grown = n
				}
				next := make([]byte, len(buf), grown)
				copy(next, buf)
				buf = next
			}
			chunk := cap(buf) - len(buf)
			if rem := n - len(buf); chunk > rem {
				chunk = rem
			}
			start := len(buf)
			buf = buf[:start+chunk]
			if _, err := io.ReadFull(c.r, buf[start:]); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// Close tears down the underlying connection. Idempotent.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.nc.Close() })
	return c.closeErr
}
