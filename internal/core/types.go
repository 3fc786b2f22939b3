// Package core defines the fundamental types shared by every Jiffy
// subsystem: block identifiers, address paths, data-structure kinds,
// configuration defaults and sentinel errors.
//
// Jiffy (EuroSys '22) partitions far-memory capacity into fixed-size
// blocks and allocates them to address prefixes organized in a per-job
// hierarchy that mirrors the job's execution DAG. The types here are the
// vocabulary for that design; the mechanisms live in sibling packages.
package core

import (
	"fmt"
	"strings"
)

// BlockID uniquely identifies a memory block across the whole cluster.
// The controller mints one per placed block from a single counter and
// never mints it again, not across failover or checkpoint restore, so
// a handle to a reclaimed block names an ID no server hosts.
type BlockID uint64

// String renders the block ID in the canonical "B<n>" form used in logs
// and in the paper's figures (e.g. B6_2).
func (b BlockID) String() string { return fmt.Sprintf("B%d", b) }

// JobID uniquely identifies a registered job. Jobs own address
// hierarchies; all prefixes created by a job live under its root.
type JobID string

// Epoch versions a data structure's partition metadata. Every scaling
// event (block added or removed) increments the epoch; clients embed the
// epoch they cached in data-plane requests and refresh their partition
// map from the controller when the server reports a newer epoch.
type Epoch uint64

// DSType enumerates Jiffy's built-in data structures (§5 of the paper).
type DSType uint8

const (
	// DSNone marks an address prefix with no data structure attached
	// (an interior node of the hierarchy).
	DSNone DSType = iota
	// DSFile is the append-only file: a sequence of blocks, each owning
	// a fixed offset range (§5.1).
	DSFile
	// DSQueue is the FIFO queue: a linked list of blocks with enqueue
	// at the tail and dequeue at the head (§5.2).
	DSQueue
	// DSKV is the key-value store: 2^k hash slots sharded across blocks,
	// cuckoo hashing within a block (§5.3).
	DSKV
)

// String returns the lowercase name used in the API and CLI.
func (t DSType) String() string {
	switch t {
	case DSNone:
		return "none"
	case DSFile:
		return "file"
	case DSQueue:
		return "queue"
	case DSKV:
		return "kv"
	default:
		return fmt.Sprintf("dstype(%d)", uint8(t))
	}
}

// ParseDSType maps a name accepted by the CLI/API back to a DSType.
func ParseDSType(s string) (DSType, error) {
	switch strings.ToLower(s) {
	case "none", "":
		return DSNone, nil
	case "file":
		return DSFile, nil
	case "queue", "fifo", "fifoqueue":
		return DSQueue, nil
	case "kv", "kvstore", "hashtable":
		return DSKV, nil
	}
	return DSNone, fmt.Errorf("core: unknown data structure type %q", s)
}

// OpType enumerates the data-plane operations a block partition
// understands. The set is the union across the three built-in
// structures; each partition rejects ops that do not apply to it.
type OpType uint8

const (
	OpNop OpType = iota
	// File ops.
	OpFileWrite  // args: offsetInBlock, data        -> bytesWritten
	OpFileRead   // args: offsetInBlock, length      -> data
	OpFileAppend // args: data                       -> offsetInBlock (atomic)
	// Queue ops.
	OpEnqueue // args: item                          -> ok / redirect
	OpDequeue // args: -                             -> item / redirect / empty
	// KV ops.
	OpPut    // args: key, value                     -> ok
	OpGet    // args: key                            -> value
	OpDelete // args: key                            -> ok
	OpExists // args: key                            -> ok / not found
	OpUpdate // args: key, value                     -> previous value
	// Slot ownership ops: a KV split or merge, sequenced at the head of
	// a chain like any mutation, so every member changes ownership at
	// the same seq. Only the controller sends them (see IsControl).
	OpDisownSlots // args: ranges, drop               -> ok
	OpOwnSlots    // args: ranges                     -> ok
	OpUsage       // args: -                          -> bytes used
	// OpQueueSetNext links a queue segment to its successor and seals
	// it. It is modeled as a data-plane mutation so that, on replicated
	// queues, the seal flows through the same sequenced propagation
	// stream as enqueues — a replica can never seal ahead of an
	// in-flight enqueue that preceded the seal at the head.
	OpQueueSetNext // args: redirect payload          -> ok
	// OpQueuePeek reads the head segment's oldest pending item without
	// consuming it (non-mutating; follows the same redirect chain as
	// dequeues).
	OpQueuePeek // args: -                             -> item / redirect / empty
)

// String names the op; used by the subscription/notification machinery
// where clients subscribe to operations by name ("put", "enqueue", ...).
func (o OpType) String() string {
	switch o {
	case OpNop:
		return "nop"
	case OpFileWrite:
		return "write"
	case OpFileRead:
		return "read"
	case OpFileAppend:
		return "append"
	case OpEnqueue:
		return "enqueue"
	case OpDequeue:
		return "dequeue"
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	case OpExists:
		return "exists"
	case OpUpdate:
		return "update"
	case OpDisownSlots:
		return "disownslots"
	case OpOwnSlots:
		return "ownslots"
	case OpUsage:
		return "usage"
	case OpQueueSetNext:
		return "setnext"
	case OpQueuePeek:
		return "peek"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// IsMutation reports whether the op modifies partition state. Mutations
// trigger usage re-evaluation (and thus possibly repartitioning) and are
// the ops forwarded through replication chains.
func (o OpType) IsMutation() bool {
	switch o {
	case OpFileWrite, OpFileAppend, OpEnqueue, OpDequeue, OpPut, OpDelete, OpUpdate,
		OpDisownSlots, OpOwnSlots, OpQueueSetNext:
		return true
	}
	return false
}

// IsControl reports whether only the controller may send the op: a
// queue seal and the slot ownership ops reach a block through their
// control methods (SetNext, SlotOwnership) and down its chain as hops,
// never in a client's data op.
func (o OpType) IsControl() bool {
	return o == OpQueueSetNext || o == OpDisownSlots || o == OpOwnSlots
}

// BlockInfo locates a block in the data plane.
type BlockInfo struct {
	ID BlockID
	// Server is the data-plane address ("host:port" for TCP transports,
	// an endpoint name for the in-process transport).
	Server string
}

// String renders "B7@host:port".
func (b BlockInfo) String() string { return fmt.Sprintf("%s@%s", b.ID, b.Server) }

// ReplicaChain is the ordered list of replicas for a block under chain
// replication (§4.2.2): writes enter at the head, reads are served at
// the tail. A chain of length 1 is the unreplicated common case.
type ReplicaChain []BlockInfo

// Head returns the chain head (write entry point).
func (c ReplicaChain) Head() BlockInfo { return c[0] }

// Tail returns the chain tail (read serving point).
func (c ReplicaChain) Tail() BlockInfo { return c[len(c)-1] }
