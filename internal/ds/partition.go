// Package ds implements Jiffy's built-in data structures (§5 and
// Table 2 of the paper) as per-block partition engines, plus the
// partition-map metadata shared by the controller and clients, and the
// compact binary codec for data-plane requests.
//
// Each block hosts exactly one Partition. The partition defines how the
// block's bytes are organized (file chunk, queue segment, or KV
// hash-slot shard), which operations apply, and how its contents are
// exported/imported during repartitioning, flushes and replication.
package ds

import (
	"encoding/binary"
	"fmt"
	"slices"

	"jiffy/internal/core"
)

// Partition is the per-block data-structure engine: the realization of
// the paper's internal block API (writeOp/readOp/deleteOp, Fig. 6).
// Implementations are safe for concurrent use.
type Partition interface {
	// Type identifies the data structure.
	Type() core.DSType
	// Apply executes one operation; args and results are op-specific
	// byte-slice vectors (see the op documentation in internal/core).
	// args alias the request frame, which the server recycles once the
	// response is written: a partition copies what it keeps, and its
	// results never alias args. It is the form custom partitions
	// implement and the server's fallback for them; a built-in answers
	// an op whose answer is an integer or a copied value by appending it
	// to the response (AppendAnswer), and its Apply runs that same code.
	Apply(op core.OpType, args [][]byte) ([][]byte, error)
	// Bytes reports the current payload usage, driving the high/low
	// repartition thresholds.
	Bytes() int
	// Capacity reports the block's fixed byte capacity.
	Capacity() int
	// Snapshot serializes the partition state for flushes to the
	// persistent tier, chain replication catch-up and block transfer.
	Snapshot() ([]byte, error)
	// Restore replaces the partition state from a snapshot.
	Restore(snapshot []byte) error
}

// New constructs a partition of the given type.
//   - DSFile:  a file chunk of the given capacity
//   - DSQueue: a queue segment of the given capacity
//   - DSKV:    a KV shard owning slots [0, numSlots) until told otherwise
func New(t core.DSType, capacity, numSlots int) (Partition, error) {
	switch t {
	case core.DSFile:
		return NewFile(capacity), nil
	case core.DSQueue:
		return NewQueue(capacity), nil
	case core.DSKV:
		return NewKV(capacity, numSlots, []SlotRange{{Lo: 0, Hi: numSlots - 1}}), nil
	default:
		if IsCustom(t) {
			return NewCustom(t, capacity, numSlots)
		}
		return nil, fmt.Errorf("ds: cannot build partition: %w (%v)", core.ErrWrongType, t)
	}
}

// SlotRange is an inclusive range of KV hash slots.
type SlotRange struct {
	Lo, Hi int
}

// Contains reports whether slot falls inside the range.
func (r SlotRange) Contains(slot int) bool { return slot >= r.Lo && slot <= r.Hi }

// Count returns the number of slots in the range.
func (r SlotRange) Count() int { return r.Hi - r.Lo + 1 }

// SlotOf maps a key to its hash slot. Every component (client,
// controller, server) must agree on this function; it is the KV
// store's request-routing hash (§5.3).
func SlotOf(key string, numSlots int) int {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	// numSlots is a power of two (validated by core.Config).
	return int(h & uint64(numSlots-1))
}

// PartitionMap is the client-visible layout of one data structure: the
// list of blocks and, per block, its role (file chunk index, queue
// position, or KV slot ranges). The controller owns the authoritative
// copy; clients cache it and refresh when the Epoch advances.
type PartitionMap struct {
	Type  core.DSType
	Epoch core.Epoch
	// NumSlots is the KV hash-slot space size (0 for other types).
	NumSlots int
	// ChunkSize is the file chunk capacity per block (0 for others).
	ChunkSize int
	// MaxBlocks bounds the structure (0 = unbounded); when the bound
	// is reached, writers get ErrBlockFull instead of elastic growth —
	// the maxQueueLength semantics of §5.2. Clients use it to fail
	// fast instead of retrying a scale-up that cannot happen.
	MaxBlocks int
	Blocks    []PartitionEntry
}

// AtMaxBlocks reports whether the structure has reached its bound.
func (m *PartitionMap) AtMaxBlocks() bool {
	return m.MaxBlocks > 0 && len(m.Blocks) >= m.MaxBlocks
}

// Clone deep-copies the map, including every entry's slot ranges. The
// controller hands clones across its lock boundary so responses can be
// serialized while the authoritative map keeps mutating.
func (m *PartitionMap) Clone() PartitionMap {
	out := *m
	out.Blocks = make([]PartitionEntry, len(m.Blocks))
	for i, e := range m.Blocks {
		out.Blocks[i] = e
		out.Blocks[i].Slots = append([]SlotRange(nil), e.Slots...)
		out.Blocks[i].Chain = append(core.ReplicaChain(nil), e.Chain...)
	}
	return out
}

// PartitionEntry describes one block's role within a data structure.
type PartitionEntry struct {
	Info core.BlockInfo
	// Chunk is the file chunk index or the queue segment sequence
	// number.
	Chunk int
	// Slots are the KV hash-slot ranges owned by the block.
	Slots []SlotRange
	// Chain is the block's replication chain when the structure is
	// replicated; Info is always the chain head. Empty = unreplicated.
	Chain core.ReplicaChain
	// Lost marks a block whose only replica died with no flushed copy
	// to recover from; clients fail operations on it with ErrBlockLost.
	Lost bool
}

// WriteTarget returns the block that accepts mutations: the chain head.
func (e PartitionEntry) WriteTarget() core.BlockInfo { return e.Info }

// ReadTarget returns the block that serves reads: the chain tail under
// chain replication (the classic consistency point — the tail holds
// only fully propagated writes), or the sole replica otherwise.
func (e PartitionEntry) ReadTarget() core.BlockInfo {
	if len(e.Chain) > 1 {
		return e.Chain.Tail()
	}
	return e.Info
}

// Replicas returns every physical block backing the entry.
func (e PartitionEntry) Replicas() []core.BlockInfo {
	if len(e.Chain) > 0 {
		return append([]core.BlockInfo(nil), e.Chain...)
	}
	return []core.BlockInfo{e.Info}
}

// BlockForSlot returns the entry owning the given KV slot.
func (m *PartitionMap) BlockForSlot(slot int) (PartitionEntry, bool) {
	for _, e := range m.Blocks {
		for _, r := range e.Slots {
			if r.Contains(slot) {
				return e, true
			}
		}
	}
	return PartitionEntry{}, false
}

// BlockForChunk returns the entry for file chunk index c.
func (m *PartitionMap) BlockForChunk(c int) (PartitionEntry, bool) {
	for _, e := range m.Blocks {
		if e.Chunk == c {
			return e, true
		}
	}
	return PartitionEntry{}, false
}

// Head returns the queue's head entry (lowest sequence number).
func (m *PartitionMap) Head() (PartitionEntry, bool) { return m.extremum(true) }

// Tail returns the queue's tail entry (highest sequence number).
func (m *PartitionMap) Tail() (PartitionEntry, bool) { return m.extremum(false) }

func (m *PartitionMap) extremum(min bool) (PartitionEntry, bool) {
	if len(m.Blocks) == 0 {
		return PartitionEntry{}, false
	}
	best := m.Blocks[0]
	for _, e := range m.Blocks[1:] {
		if (min && e.Chunk < best.Chunk) || (!min && e.Chunk > best.Chunk) {
			best = e
		}
	}
	return best, true
}

// --- Data-plane request codec -------------------------------------------
//
// Data ops are the hot path, so they use a hand-rolled binary layout
// rather than the reflective internal/codec:
//
//	u8   op
//	u64  block id
//	u16  number of args
//	per arg: u32 length + bytes

// AppendRequest appends a data-plane operation's encoding to dst. The
// hot path encodes into pooled buffers (wire.GetBuf) via this form;
// EncodeRequest wraps it for callers that want a fresh buffer.
func AppendRequest(dst []byte, op core.OpType, block core.BlockID, args [][]byte) []byte {
	dst = append(dst, byte(op))
	dst = binary.BigEndian.AppendUint64(dst, uint64(block))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(args)))
	for _, a := range args {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(a)))
		dst = append(dst, a...)
	}
	return dst
}

// EncodeRequest serializes a data-plane operation.
func EncodeRequest(op core.OpType, block core.BlockID, args [][]byte) []byte {
	n := 1 + 8 + 2
	for _, a := range args {
		n += 4 + len(a)
	}
	return AppendRequest(make([]byte, 0, n), op, block, args)
}

// decodeRequestPrefix parses one operation from the front of data,
// appends its args to dst and returns the remainder; DecodeRequest,
// DecodeBatchRequest and DecodeReplicate all run it. args is dst
// extended by the op's args, which alias data; a nil dst costs one
// vector of exactly the op's arg count.
func decodeRequestPrefix(dst [][]byte, data []byte) (op core.OpType, block core.BlockID, args [][]byte, rest []byte, err error) {
	if len(data) < 11 {
		return 0, 0, nil, nil, fmt.Errorf("ds: request too short (%d bytes)", len(data))
	}
	if args, rest, err = scanVec(dst, data[9:]); err != nil {
		return 0, 0, nil, nil, err
	}
	return core.OpType(data[0]), core.BlockID(binary.BigEndian.Uint64(data[1:9])), args, rest, nil
}

// scanVec is the one scanner of a length-prefixed vector — u16 count,
// then count × (u32 length, bytes) — under both request args and result
// values. It appends the values at the front of data to dst and returns
// the remainder; the values alias data, and a nil dst costs one vector
// of exactly the count.
func scanVec(dst [][]byte, data []byte) (vec [][]byte, rest []byte, err error) {
	if len(data) < 2 {
		return nil, nil, fmt.Errorf("ds: vector too short (%d bytes)", len(data))
	}
	n := int(binary.BigEndian.Uint16(data))
	off := 2
	if n > (len(data)-off)/4 {
		// Every value needs at least its length prefix; checking up
		// front keeps a forged count from sizing the allocation below.
		return nil, nil, fmt.Errorf("ds: truncated vector header")
	}
	vec = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		if off+4 > len(data) {
			return nil, nil, fmt.Errorf("ds: truncated vector header")
		}
		l := int(binary.BigEndian.Uint32(data[off : off+4]))
		off += 4
		if l < 0 || l > len(data)-off {
			return nil, nil, fmt.Errorf("ds: truncated vector value")
		}
		vec = append(vec, data[off:off+l])
		off += l
	}
	return vec, data[off:], nil
}

// DecodeRequest parses a data-plane operation into a fresh arg vector.
func DecodeRequest(data []byte) (op core.OpType, block core.BlockID, args [][]byte, err error) {
	return DecodeRequestInto(nil, data)
}

// DecodeRequestInto parses a data-plane operation, appending its args
// to dst; they alias data, and bytes after the operation are an error.
// The server decodes every single op into a pooled vector (dst[:0]).
func DecodeRequestInto(dst [][]byte, data []byte) (op core.OpType, block core.BlockID, args [][]byte, err error) {
	op, block, args, rest, err := decodeRequestPrefix(dst, data)
	if err == nil && len(rest) != 0 {
		return 0, 0, nil, fmt.Errorf("ds: %d trailing bytes after request", len(rest))
	}
	return op, block, args, err
}

// AppendVals appends a result vector's encoding to dst (same layout as
// request args); the server's batch path encodes into pooled buffers
// via this form.
func AppendVals(dst []byte, vals [][]byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(vals)))
	for _, v := range vals {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// EncodeVals serializes a result vector.
func EncodeVals(vals [][]byte) []byte {
	n := 2
	for _, v := range vals {
		n += 4 + len(v)
	}
	return AppendVals(make([]byte, 0, n), vals)
}

// DecodeVals parses a result vector into a fresh one.
func DecodeVals(data []byte) ([][]byte, error) {
	return DecodeValsInto(nil, data)
}

// DecodeValsInto parses a result vector, appending the values to dst;
// they alias data, and bytes after the vector are an error. A caller
// decoding many results reuses one vector (dst[:0]); a nil dst costs
// one vector of exactly the value count.
func DecodeValsInto(dst [][]byte, data []byte) ([][]byte, error) {
	vals, rest, err := scanVec(dst, data)
	if err == nil && len(rest) != 0 {
		return nil, fmt.Errorf("ds: %d trailing bytes after result", len(rest))
	}
	return vals, err
}

// U64 encodes an integer argument.
func U64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// ParseU64 decodes an integer argument.
func ParseU64(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("ds: expected 8-byte integer, got %d bytes", len(b))
	}
	return binary.BigEndian.Uint64(b), nil
}
