package ds

import (
	"encoding/binary"
	"slices"

	"jiffy/internal/core"
	"jiffy/internal/wire"
)

// Zero-copy read views.
//
// A View is a result vector whose value slices alias partition memory
// instead of freshly encoded copies. Aliasing is safe under one of two
// regimes, and every ViewReader implementation must satisfy one:
//
//   - Immutable values: the partition never mutates stored bytes in
//     place. Queues copy items on Enqueue, so a peeked slice can outlive
//     the partition lock — deletion merely drops references the
//     response still holds.
//   - Leased views: the partition DOES mutate memory in place (a file
//     chunk's WriteAt), so ApplyView returns with a read lease held —
//     Lease.Release drops it. The server releases it once the response
//     frame's bytes have been handed to the transport (the rpc layer's
//     Response.Release), which bounds the lease to the in-flight
//     response.
//
// KV values are overwritten in place too, and small: instead of a
// leased view, a KV read copies its value into the response under the
// bucket lock that guards it (AppendAnswer).
type View struct {
	// Vals is the result vector; slices may alias partition memory.
	Vals [][]byte
	// Lease, if non-nil, is the view's hold on that memory; its Release
	// ends it. Must be called exactly once, after which Vals must not
	// be touched. A file chunk's lease is the chunk itself, so holding
	// one costs no object.
	Lease wire.Releaser
}

// ViewReader is implemented by partitions that can serve non-mutating
// ops as zero-copy views into their memory.
type ViewReader interface {
	// ApplyView executes op if it has a zero-copy form; Vals is dst
	// extended by the result, so a caller answering many ops reuses one
	// vector. handled=false means the caller must fall back to Apply;
	// when an error is returned no lease is held.
	ApplyView(op core.OpType, args, dst [][]byte) (v View, handled bool, err error)
}

// ApplyView tries the zero-copy read path against a partition.
func ApplyView(p Partition, op core.OpType, args, dst [][]byte) (View, bool, error) {
	if vr, ok := p.(ViewReader); ok {
		return vr.ApplyView(op, args, dst)
	}
	return View{}, false, nil
}

// AppendAnswer runs op by encoding its result vector (the AppendVals
// layout) onto dst, when the partition answers it that way: every
// built-in op whose answer is an integer or a copied value — a KV get,
// copied under its bucket lock; a file write's byte count and an
// append's offset; any built-in's usage. Nothing in the answer aliases
// partition memory, and no result vector exists. handled=false means
// the caller must fall back (a view, or Apply, the form custom
// partitions implement); on an error dst comes back unextended.
func AppendAnswer(p Partition, dst []byte, op core.OpType, args [][]byte) (out []byte, handled bool, err error) {
	if a, ok := p.(answerer); ok {
		return a.appendAnswer(dst, op, args)
	}
	return dst, false, nil
}

// answerer is a built-in partition's appending form (AppendAnswer).
type answerer interface {
	appendAnswer(dst []byte, op core.OpType, args [][]byte) ([]byte, bool, error)
}

// applyAnswer is Apply for an op a built-in answers by appending: the
// answer is encoded into a buffer that shares one allocation with the
// one-element vector returned, so an integer result is one object.
func applyAnswer(p answerer, op core.OpType, args [][]byte) ([][]byte, error) {
	r := new(struct {
		vec [1][]byte
		buf [2 + 4 + 8]byte
	})
	out, _, err := p.appendAnswer(r.buf[:0], op, args)
	if err != nil {
		return nil, err
	}
	return DecodeValsInto(r.vec[:0], out)
}

// AppendU64 encodes a result vector of integers onto dst: its count,
// then each value's length and its 8 bytes.
func AppendU64(dst []byte, vs ...uint64) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(vs)))
	for _, v := range vs {
		dst = binary.BigEndian.AppendUint64(append(dst, 0, 0, 0, 8), v)
	}
	return dst
}

// AppendValsVec encodes a result vector (same wire layout as
// EncodeVals) without copying the values: the count and every length
// prefix are written into buf up front, and the segments appended to
// dst interleave subslices of buf with the value slices themselves.
// payload is the first segment (count + first prefix) — callers hand
// it to the rpc layer as the contiguous Response.Payload so the
// buffer is recycled after the write; vec, dst extended, carries the
// remainder, so a caller answering many reads reuses one vector.
// buf's contents are consumed; pass wire.GetBuf().
func AppendValsVec(dst [][]byte, buf []byte, vals [][]byte) (payload []byte, vec [][]byte) {
	need := 2 + 4*len(vals)
	if cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = buf[:need]
	binary.BigEndian.PutUint16(buf[0:2], uint16(len(vals)))
	for i, v := range vals {
		binary.BigEndian.PutUint32(buf[2+4*i:6+4*i], uint32(len(v)))
	}
	if len(vals) == 0 {
		return buf[:2], dst
	}
	vec = append(slices.Grow(dst, 2*len(vals)-1), vals[0])
	for i := 1; i < len(vals); i++ {
		vec = append(vec, buf[2+4*i:6+4*i], vals[i])
	}
	return buf[:6], vec
}

// AppendRequestVec encodes a data-plane request (same wire layout as
// AppendRequest) without copying the argument bodies: fixed fields and
// length prefixes go into head, and the segments appended to dst
// interleave subslices of head with the args themselves — the
// client-side zero-copy form for large writes. buf is head's final
// backing buffer; release it (wire.PutBuf) once the segments have been
// written.
func AppendRequestVec(dst [][]byte, head []byte, op core.OpType, block core.BlockID, args [][]byte) (vec [][]byte, buf []byte) {
	return appendRequestVec(dst, head, 0, op, block, args)
}

// appendRequestVec is AppendRequestVec with the first skip bytes of
// head left for the caller to fill; they travel at the front of the
// first segment (the replication hop's seq|gen prefix).
func appendRequestVec(dst [][]byte, head []byte, skip int, op core.OpType, block core.BlockID, args [][]byte) (vec [][]byte, buf []byte) {
	need := skip + 11 + 4*len(args)
	if cap(head) < need {
		head = make([]byte, 0, need)
	}
	head = head[:need]
	req := head[skip:]
	req[0] = byte(op)
	binary.BigEndian.PutUint64(req[1:9], uint64(block))
	binary.BigEndian.PutUint16(req[9:11], uint16(len(args)))
	for i, a := range args {
		binary.BigEndian.PutUint32(req[11+4*i:15+4*i], uint32(len(a)))
	}
	if len(args) == 0 {
		return append(dst, head), head
	}
	vec = append(slices.Grow(dst, 2*len(args)), head[:skip+15], args[0])
	for i := 1; i < len(args); i++ {
		vec = append(vec, req[11+4*i:15+4*i], args[i])
	}
	return vec, head
}
