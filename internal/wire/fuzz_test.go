package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"jiffy/internal/core"
)

// fuzzConn wraps a byte stream in a read-only frame decoder.
func fuzzConn(data []byte) *Conn {
	return &Conn{r: bufio.NewReader(bytes.NewReader(data))}
}

// FuzzFrameRoundTrip encodes an arbitrary frame and decodes it back:
// every field must survive, the stream must be consumed exactly, and
// nothing may panic — batched requests stack many frames back to back,
// so a single mis-sized frame would desynchronize the whole session.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(byte(1), uint64(0), uint16(0), byte(0), []byte(nil))
	f.Add(byte(2), uint64(42), uint16(7), byte(3), []byte("hello jiffy"))
	f.Add(byte(3), uint64(1)<<60, uint16(0x0110), byte(255), bytes.Repeat([]byte{0xab}, 4096))
	// Trace-extension frame with a well-formed extension payload.
	f.Add(byte(4), uint64(77), uint16(0), byte(0), EncodeTraceExt(0xdeadbeef, 0xfeedface))
	f.Fuzz(func(t *testing.T, kind byte, seq uint64, method uint16, code byte, payload []byte) {
		in := &Frame{
			Kind:    Kind(kind%4 + 1), // wire kinds are 1..4; decode rejects the rest
			Seq:     seq,
			Method:  method,
			Code:    core.ErrorCode(code),
			Payload: payload,
		}
		// Two frames back to back: the decoder must consume exactly one
		// frame per call, or batched writes would desynchronize.
		buf := AppendFrame(AppendFrame(nil, in), in)
		c := fuzzConn(buf)
		for i := 0; i < 2; i++ {
			out, err := c.ReadFrame()
			if err != nil {
				t.Fatalf("frame %d: decode: %v", i, err)
			}
			if out.Kind != in.Kind || out.Seq != in.Seq ||
				out.Method != in.Method || out.Code != in.Code ||
				!bytes.Equal(out.Payload, in.Payload) {
				t.Fatalf("frame %d: got %+v, want %+v", i, out, in)
			}
		}
		if _, err := c.ReadFrame(); err != io.EOF {
			t.Fatalf("trailing read = %v, want io.EOF", err)
		}
	})
}

// FuzzFrameDecode feeds arbitrary bytes into the frame reader: it must
// parse frames or fail cleanly — never panic, never hang, never let an
// invalid kind escape, and never hold a payload beyond the frame
// bound, no matter what a malicious or corrupted peer sends.
func FuzzFrameDecode(f *testing.F) {
	// A valid 1-byte-payload request frame.
	f.Add(AppendFrame(nil, &Frame{Kind: KindRequest, Seq: 42, Method: 7, Payload: []byte("A")}))
	// Truncated: claims 16 bytes, delivers 2.
	f.Add([]byte("\x00\x00\x00\x10\x02\x01"))
	// Length prefix far above MaxFrameSize.
	f.Add([]byte("\xff\xff\xff\xff\x00\x00\x00\x00"))
	// Claims a 16MB frame (chunked-allocation path), delivers 4 bytes.
	f.Add([]byte("\x01\x00\x00\x00ABCD"))
	// Below-header length.
	f.Add([]byte("\x00\x00\x00\x01\x00\x00\x00\x00"))
	// Garbage.
	f.Add([]byte("not a frame at all"))
	// A trace-extension frame followed by the request it annotates —
	// the exact byte sequence a tracing client emits.
	f.Add(AppendFrame(
		AppendFrame(nil, &Frame{Kind: KindTraceExt, Seq: 9, Payload: EncodeTraceExt(1, 2)}),
		&Frame{Kind: KindRequest, Seq: 9, Method: 0x0101, Payload: []byte("op")}))
	// Truncated / version-skewed trace extensions: must decode as frames
	// but fail DecodeTraceExt cleanly.
	f.Add(AppendFrame(nil, &Frame{Kind: KindTraceExt, Seq: 9, Payload: []byte{1, 2, 3}}))
	f.Add(AppendFrame(nil, &Frame{Kind: KindTraceExt, Seq: 9, Payload: append([]byte{99}, EncodeTraceExt(1, 2)...)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzConn(data)
		for i := 0; i < 64; i++ {
			fr, err := c.ReadFrame()
			if err != nil {
				return // clean rejection
			}
			switch fr.Kind {
			case KindRequest, KindResponse, KindPush:
			case KindTraceExt:
				// The extension decoder must reject or accept without
				// panicking, whatever the payload.
				DecodeTraceExt(fr.Payload)
			default:
				t.Fatalf("invalid kind %d escaped the decoder", fr.Kind)
			}
			if len(fr.Payload) > MaxFrameSize {
				t.Fatalf("payload of %d bytes exceeds MaxFrameSize", len(fr.Payload))
			}
		}
	})
}

// FuzzInlineFrameRoundTrip covers the inline small-frame fast path:
// frames encoded contiguously (AppendFrame + WriteBytes, optionally
// preceded by a paired trace-extension frame under the same seq) must
// decode identically through ReadFrameReused, reporting reused=true
// exactly when the frame fits the inline threshold, and must stay
// byte-compatible with the plain ReadFrame path — the fast path is an
// optimization, not a dialect.
func FuzzInlineFrameRoundTrip(f *testing.F) {
	f.Add(byte(1), uint64(0), uint16(0), byte(0), []byte(nil), false, uint64(0), uint64(0))
	f.Add(byte(2), uint64(42), uint16(0x0101), byte(0), []byte("small payload"), false, uint64(0), uint64(0))
	// Trace-ext pairing: extension then request, same seq, one buffer.
	f.Add(byte(1), uint64(7), uint16(0x0101), byte(0), []byte("traced op"), true, uint64(0xdeadbeef), uint64(0xfeedface))
	// Threshold boundary: the largest frame the reused path takes, one
	// below it, and the first frame that must fall back to the
	// allocating path.
	f.Add(byte(1), uint64(9), uint16(7), byte(0), bytes.Repeat([]byte{0x5a}, InlineFrameThreshold-1), false, uint64(0), uint64(0))
	f.Add(byte(2), uint64(10), uint16(7), byte(3), bytes.Repeat([]byte{0x5b}, InlineFrameThreshold), true, uint64(1), uint64(2))
	f.Add(byte(1), uint64(11), uint16(7), byte(0), bytes.Repeat([]byte{0x5c}, InlineFrameThreshold+1), false, uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, kind byte, seq uint64, method uint16, code byte,
		payload []byte, pair bool, traceID, spanID uint64) {
		in := &Frame{
			Kind:    Kind(kind%4 + 1),
			Seq:     seq,
			Method:  method,
			Code:    core.ErrorCode(code),
			Payload: payload,
		}
		var frames []*Frame
		if pair {
			frames = append(frames, &Frame{Kind: KindTraceExt, Seq: seq,
				Payload: EncodeTraceExt(traceID, spanID)})
		}
		// Two copies of the request so the second read exercises reuse
		// of the connection-owned frame and buffer.
		frames = append(frames, in, in)

		// Encode the convoy the way the client fast path does — one
		// contiguous buffer, one WriteBytes — and check the emitted
		// stream matches the canonical encoder byte for byte.
		var contiguous []byte
		for _, fr := range frames {
			contiguous = AppendFrame(contiguous, fr)
		}
		var stream bytes.Buffer
		wc := &Conn{w: bufio.NewWriterSize(&stream, 64*core.KB)}
		if err := wc.WriteBytes(contiguous); err != nil {
			t.Fatalf("WriteBytes: %v", err)
		}
		if !bytes.Equal(stream.Bytes(), contiguous) {
			t.Fatalf("WriteBytes emitted %d bytes, want %d", stream.Len(), len(contiguous))
		}

		check := func(got *Frame, want *Frame, i int) {
			t.Helper()
			if got.Kind != want.Kind || got.Seq != want.Seq ||
				got.Method != want.Method || got.Code != want.Code ||
				!bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("frame %d: got kind=%d seq=%d method=%d code=%d |p|=%d, want kind=%d seq=%d method=%d code=%d |p|=%d",
					i, got.Kind, got.Seq, got.Method, got.Code, len(got.Payload),
					want.Kind, want.Seq, want.Method, want.Code, len(want.Payload))
			}
		}

		// Reused-path decode: fields must match and the reused flag must
		// track the threshold exactly. The contract says a reused frame
		// is valid only until the next read, so each frame is checked
		// before the next ReadFrameReused call.
		rc := fuzzConn(contiguous)
		for i, want := range frames {
			got, reused, err := rc.ReadFrameReused()
			if err != nil {
				t.Fatalf("frame %d: ReadFrameReused: %v", i, err)
			}
			wantReused := len(want.Payload)+len(want.PayloadVec) <= InlineFrameThreshold
			if reused != wantReused {
				t.Fatalf("frame %d: reused=%v for %d-byte payload (threshold %d)",
					i, reused, len(want.Payload), InlineFrameThreshold)
			}
			check(got, want, i)
		}
		if _, _, err := rc.ReadFrameReused(); err != io.EOF {
			t.Fatalf("trailing reused read = %v, want io.EOF", err)
		}

		// Wire compatibility: the plain allocating reader must decode
		// the same stream identically (old peer reading a new writer).
		pc := fuzzConn(contiguous)
		for i, want := range frames {
			got, err := pc.ReadFrame()
			if err != nil {
				t.Fatalf("frame %d: ReadFrame: %v", i, err)
			}
			check(got, want, i)
		}
		if _, err := pc.ReadFrame(); err != io.EOF {
			t.Fatalf("trailing plain read = %v, want io.EOF", err)
		}
	})
}

// FuzzFrameVecRoundTrip covers the scatter-gather write path: a frame
// whose body is split across Payload and PayloadVec segments must
// produce the same byte stream from the test encoder and the live
// staged write path, decode back as one contiguous payload, and fire
// its Release hook exactly once.
func FuzzFrameVecRoundTrip(f *testing.F) {
	f.Add(byte(1), uint64(0), uint16(0), byte(0), []byte(nil), []byte(nil), []byte(nil))
	f.Add(byte(2), uint64(42), uint16(7), byte(0), []byte("head"), []byte("vec-a"), []byte("vec-b"))
	f.Add(byte(2), uint64(9), uint16(0x0101), byte(0), []byte{0, 6}, bytes.Repeat([]byte{0xcd}, 1024), []byte(nil))
	f.Add(byte(3), uint64(1)<<40, uint16(0x0110), byte(5), []byte(nil), []byte("only-vec"), bytes.Repeat([]byte{0x11}, 100))
	f.Fuzz(func(t *testing.T, kind byte, seq uint64, method uint16, code byte, payload, vecA, vecB []byte) {
		in := &Frame{
			Kind:       Kind(kind%4 + 1),
			Seq:        seq,
			Method:     method,
			Code:       core.ErrorCode(code),
			Payload:    payload,
			PayloadVec: [][]byte{vecA, vecB},
		}
		want := append(append(append([]byte(nil), payload...), vecA...), vecB...)

		encoded := AppendFrame(nil, in)

		// The live write path must emit identical bytes and fire the
		// release hook exactly once, staged or vectored alike.
		released := 0
		var stream bytes.Buffer
		wc := &Conn{w: bufio.NewWriterSize(&stream, 64*core.KB)}
		live := *in
		live.Release = releaseFunc(func() { released++ })
		if err := wc.WriteFrame(&live); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		if released != 1 {
			t.Fatalf("release fired %d times, want 1", released)
		}
		if !bytes.Equal(stream.Bytes(), encoded) {
			t.Fatalf("write path emitted %d bytes != AppendFrame's %d", stream.Len(), len(encoded))
		}

		out, err := fuzzConn(encoded).ReadFrame()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if out.Kind != in.Kind || out.Seq != in.Seq || out.Method != in.Method || out.Code != in.Code {
			t.Fatalf("header: got %+v, want %+v", out, in)
		}
		if !bytes.Equal(out.Payload, want) {
			t.Fatalf("payload: got %d bytes, want %d", len(out.Payload), len(want))
		}
		if len(out.PayloadVec) != 0 {
			t.Fatalf("decoded frame has PayloadVec (%d segments); reads are contiguous", len(out.PayloadVec))
		}
	})
}
