package server

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/proto"
)

// Chain replication (§4.2.2): Jiffy supports chain replication at
// block granularity for applications that need intermediate-data fault
// tolerance. Writes enter at the chain head; the head applies each
// mutation under a per-block sequence lock (so the propagation
// stream's sequence order equals its local apply order) and forwards
// it synchronously to its successor, which applies mutations strictly
// in sequence order and forwards onwards. By the time the head
// acknowledges a write, every replica holds it. Reads are served at
// the tail — the classic chain-replication consistency argument: the
// tail only ever holds fully propagated writes. The control ops that
// change a block's state — a queue seal, a KV shard's change of slot
// ownership — ride this path too: the controller sends them to the
// head, so every member applies them at the same seq. The controller
// provisions chains, spreads members across servers, and splices dead
// members out of chains (see internal/controller's repair planner);
// each splice starts a new chain generation so mutations from the old
// configuration fail fast instead of deadlocking the sequence stream.
// No live member is restored from a snapshot: a member loads its data
// once, before it serves (a fill), and a KV split's or merge's target
// loads only slots it does not own yet.

// ChainHopError reports a transport-level failure reaching the next
// chain hop: the hop's server is unreachable or the connection died
// mid-call. It is write-path evidence that the server may be dead, so
// the head reports it to the controller's failure detector.
type ChainHopError struct {
	Hop core.BlockInfo
	Err error
}

func (e *ChainHopError) Error() string {
	return fmt.Sprintf("server: chain hop %v unreachable: %v", e.Hop, e.Err)
}

func (e *ChainHopError) Unwrap() error { return e.Err }

// ReplicaApplyError reports that a reachable replica failed to apply a
// forwarded mutation — an operation-level failure (stale generation,
// unknown block, partition error), not evidence that the hop is dead.
type ReplicaApplyError struct {
	Block core.BlockID
	Err   error
}

func (e *ReplicaApplyError) Error() string {
	return fmt.Sprintf("server: replica %v apply failed: %v", e.Block, e.Err)
}

func (e *ReplicaApplyError) Unwrap() error { return e.Err }

// The hop's wire form is the data plane's own codec behind a 16-byte
// seq|gen prefix (see ds.AppendReplicateVec): a header in the op
// scratch's hop buffer plus a vectored write of the argument slices,
// whose segments extend the scratch's forward vector, so a hop
// allocates nothing. At the head
// those slices alias the client's request frame and at a mid-chain
// member the predecessor's hop frame, so a payload is copied once per
// member — out of the frame, into block memory — and never re-encoded.
// The chain itself does not travel: every member of a generation was
// installed with the same chain, and finds its own successor in it.

// propagate forwards a sequenced mutation from o's block, which has
// applied it, to the block's successor in chain — the block's chain
// snapshot taken under the sequence lock (see sequence), so a
// concurrent repair splice cannot mix configurations within one
// mutation. The hop's segments are built in o's scratch.
// Failures are classified: transport-level ones become ChainHopError
// (and are reported to the controller as death evidence), everything
// else ReplicaApplyError.
func (s *Server) propagate(ctx context.Context, o *opCtx, chain core.ReplicaChain,
	seq, gen uint64, op core.OpType, args [][]byte) error {
	b := o.b
	pos := slices.IndexFunc(chain, func(m core.BlockInfo) bool { return m.ID == b.ID })
	if pos < 0 || pos+1 >= len(chain) {
		return nil // sole replica or tail: nothing to forward
	}
	next := chain[pos+1]
	peer, err := s.peers.Get(next.Server)
	if err != nil {
		s.reportHop(next, false)
		return &ChainHopError{Hop: next, Err: err}
	}
	start := s.clk.Now()
	// The call returns once the successor has answered, so the segments
	// (and the frame they alias) are long consumed by then.
	vec, head := ds.AppendReplicateVec(o.sc.fwd[:0], o.sc.hop[:0], seq, gen, op, next.ID, args)
	_, err = peer.CallVecContext(ctx, proto.MethodReplicate, vec)
	o.sc.fwd, o.sc.hop = vec, head[:0]
	if err == nil {
		// The successor applies in sequence order before replying, so the
		// forward round trip is a direct proxy for its ApplyInOrder stall:
		// a persistently slow hop is gray-failure evidence.
		s.noteForwardLatency(next, s.clk.Now().Sub(start))
		return nil
	}
	if errors.Is(err, core.ErrClosed) || errors.Is(err, core.ErrTimeout) {
		// The session died mid-call: evict it so the next attempt
		// re-dials, and surface the hop as possibly dead.
		s.peers.Drop(next.Server)
		s.reportHop(next, false)
		return &ChainHopError{Hop: next, Err: err}
	}
	return &ReplicaApplyError{Block: next.ID, Err: err}
}
