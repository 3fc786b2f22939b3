package ds

import (
	"encoding/binary"
	"fmt"

	"jiffy/internal/core"
)

// Batch codec: the wire form of MethodDataOpBatch. A batch groups many
// data-plane operations destined for one server into a single request
// frame; the server executes them in order and replies with one result
// per op in a single response frame. Layouts (big endian):
//
//	request:  u16 nops, then per op the single-op request layout
//	          (u8 op, u64 block, u16 nargs, per arg u32 len + bytes)
//	response: u16 nresults, then per result u8 code + u32 len + blob
//
// A result's blob is the EncodeVals-encoded value vector on CodeOK, the
// redirect payload on CodeRedirect, and the error message on CodeOther.
// Ops fail independently: one op's error never aborts its neighbours,
// so the client always gets per-op attribution.

// BatchOp is one operation inside a batch request.
type BatchOp struct {
	Op    core.OpType
	Block core.BlockID
	Args  [][]byte
}

// BatchResult is one operation's outcome inside a batch response.
type BatchResult struct {
	Code core.ErrorCode
	Blob []byte
}

// OKResult wraps a successful op's value vector.
func OKResult(vals [][]byte) BatchResult {
	return BatchResult{Code: core.CodeOK, Blob: EncodeVals(vals)}
}

// ErrResult converts an op error into its wire form, preserving the
// sentinel code, the redirect payload, and unclassified messages. It
// is the one rule for both response shapes: a single-op response
// frame carries the same blob as its payload.
func ErrResult(err error) BatchResult {
	r := BatchResult{Code: core.CodeOf(err)}
	if p := RedirectPayloadOf(err); p != nil {
		r.Blob = p
	} else if r.Code == core.CodeOther || r.Code == core.CodeQuotaExceeded {
		// Quota refusals keep their message too: ErrOf parses the
		// retry-after hint back out of it on the client side.
		r.Blob = []byte(err.Error())
	}
	return r
}

// Err maps a non-OK result back to the error the single-op path would
// have returned; OK results yield nil.
func (r BatchResult) Err() error {
	if r.Code == core.CodeOK {
		return nil
	}
	return core.ErrOf(r.Code, string(r.Blob))
}

// Vals decodes a successful result's value vector.
func (r BatchResult) Vals() ([][]byte, error) {
	if err := r.Err(); err != nil {
		return nil, err
	}
	return DecodeVals(r.Blob)
}

// AppendBatchRequest appends the batch request encoding to dst (which
// may be a pooled buffer).
func AppendBatchRequest(dst []byte, ops []BatchOp) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(ops)))
	for _, o := range ops {
		dst = AppendRequest(dst, o.Op, o.Block, o.Args)
	}
	return dst
}

// EncodeBatchRequest serializes a batch request into a fresh buffer.
func EncodeBatchRequest(ops []BatchOp) []byte {
	return AppendBatchRequest(nil, ops)
}

// DecodeBatchRequest parses a batch request. Op args alias data.
func DecodeBatchRequest(data []byte) ([]BatchOp, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("ds: batch request too short (%d bytes)", len(data))
	}
	nops := int(binary.BigEndian.Uint16(data[0:2]))
	data = data[2:]
	ops := make([]BatchOp, 0, nops)
	for i := 0; i < nops; i++ {
		op, block, args, rest, err := decodeRequestPrefix(data)
		if err != nil {
			return nil, fmt.Errorf("ds: batch op %d: %w", i, err)
		}
		ops = append(ops, BatchOp{Op: op, Block: block, Args: args})
		data = rest
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("ds: batch request has %d trailing bytes", len(data))
	}
	return ops, nil
}

// AppendResult appends one result to a batch response under
// construction. An OK result without a blob — ErrResult(nil) — takes
// vals as its blob, encoded straight into dst, so a server answers a
// batch without an allocation per op.
func AppendResult(dst []byte, r BatchResult, vals [][]byte) []byte {
	dst = append(dst, byte(r.Code), 0, 0, 0, 0)
	start := len(dst)
	if r.Code == core.CodeOK && r.Blob == nil {
		dst = AppendVals(dst, vals)
	} else {
		dst = append(dst, r.Blob...)
	}
	binary.BigEndian.PutUint32(dst[start-4:start], uint32(len(dst)-start))
	return dst
}

// AppendBatchResults appends the batch response encoding to dst (which
// may be a pooled buffer).
func AppendBatchResults(dst []byte, results []BatchResult) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(results)))
	for _, r := range results {
		dst = AppendResult(dst, r, nil)
	}
	return dst
}

// EncodeBatchResults serializes a batch response into a fresh buffer.
func EncodeBatchResults(results []BatchResult) []byte {
	return AppendBatchResults(nil, results)
}

// DecodeBatchResults parses a batch response. Blobs alias data.
func DecodeBatchResults(data []byte) ([]BatchResult, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("ds: batch response too short (%d bytes)", len(data))
	}
	n := int(binary.BigEndian.Uint16(data[0:2]))
	off := 2
	results := make([]BatchResult, 0, n)
	for i := 0; i < n; i++ {
		if off+5 > len(data) {
			return nil, fmt.Errorf("ds: batch result %d: truncated header", i)
		}
		code := core.ErrorCode(data[off])
		l := int(binary.BigEndian.Uint32(data[off+1 : off+5]))
		off += 5
		if off+l > len(data) {
			return nil, fmt.Errorf("ds: batch result %d: truncated blob", i)
		}
		r := BatchResult{Code: code}
		if l > 0 {
			r.Blob = data[off : off+l]
		}
		off += l
		results = append(results, r)
	}
	if off != len(data) {
		return nil, fmt.Errorf("ds: batch response has %d trailing bytes", len(data)-off)
	}
	return results, nil
}
