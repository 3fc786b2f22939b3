package controller

import (
	"context"
	"errors"
	"fmt"

	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/proto"
	"jiffy/internal/rpc"
)

// serverUnreachableError marks an RPC failure as connectivity-class:
// the server could not be dialed, or its session broke mid-call. It is
// evidence of server death — a rebuild uses it to evict the server and
// retry elsewhere (see place) — as opposed to an error the server
// itself returned, which proves it is alive.
type serverUnreachableError struct {
	addr string
	err  error
}

func (e *serverUnreachableError) Error() string {
	return fmt.Sprintf("controller: server %s unreachable: %v", e.addr, e.err)
}

func (e *serverUnreachableError) Unwrap() error { return e.err }

// unreachableAddr returns the server behind a connectivity-class
// failure, or "" for any other error.
func unreachableAddr(err error) string {
	var ue *serverUnreachableError
	if errors.As(err, &ue) {
		return ue.addr
	}
	return ""
}

// callServer performs one control RPC against a memory server,
// classifying dial failures and broken sessions as
// serverUnreachableError (rpc.InvokeAt drops the broken pooled session,
// so the next call re-dials instead of reusing a dead connection).
func callServer[Req, Resp any](c *Controller, addr string, m proto.Method[Req, Resp], req Req) (Resp, error) {
	resp, err := rpc.InvokeAt(context.Background(), c.servers, addr, m, req)
	switch {
	case err == nil:
	case errors.Is(err, core.ErrClosed):
		err = &serverUnreachableError{addr: addr, err: err}
	default:
		err = fmt.Errorf("controller: %s method %#x: %w", addr, m.ID, err)
	}
	return resp, err
}

// createBlockOnServer installs a partition for one block.
func (c *Controller) createBlockOnServer(info core.BlockInfo, path core.Path,
	t core.DSType, chunk int, slots []ds.SlotRange, chain core.ReplicaChain) error {
	req := proto.CreateBlockReq{
		Block:    info.ID,
		Path:     path,
		Type:     t,
		Capacity: c.cfg.BlockSize,
		NumSlots: c.cfg.NumHashSlots,
		Slots:    slots,
		Chunk:    chunk,
		Chain:    chain,
	}
	_, err := callServer(c, info.Server, proto.CreateBlock, req)
	if errors.Is(err, core.ErrExists) {
		// The server holds a partition under an ID the committed
		// metadata never placed: an orphan from a previous leader's
		// uncommitted work (a chain splice cut short by the leader's
		// death never reaches the op-log, but its replacement block
		// survives on the server). The replicated metadata is
		// authoritative — reclaim the orphan and install the new
		// partition in its place.
		c.log.Warn("controller: reclaiming orphan block",
			"block", info.ID, "on", info.Server)
		if _, derr := callServer(c, info.Server, proto.DeleteBlock,
			proto.DeleteBlockReq{Block: info.ID}); derr != nil {
			return err
		}
		_, err = callServer(c, info.Server, proto.CreateBlock, req)
	}
	return err
}

// deleteBlockOnServer removes a block's partition; failures are logged
// (the server may already be gone) and the block is still freed. Any
// tier record for the member is dropped with it — a deleted block's
// tier object must never be resurrected by a later repair, and its
// storage is reclaimed with it.
func (c *Controller) deleteBlockOnServer(info core.BlockInfo) {
	c.dropTierRecord(info)
	if _, err := callServer(c, info.Server, proto.DeleteBlock,
		proto.DeleteBlockReq{Block: info.ID}); err != nil {
		c.log.Debug("controller: delete block failed", "block", info, "err", err)
	}
}

// flushBlockOnServer writes a block to the persistent store as a JTO1
// object and returns the object's envelope identity.
func (c *Controller) flushBlockOnServer(info core.BlockInfo, key string) (proto.FlushBlockResp, error) {
	return callServer(c, info.Server, proto.FlushBlock, proto.FlushBlockReq{Block: info.ID, Key: key})
}

// updateChainOnServer switches one block to a new chain layout under a
// new replication generation (see repair.go).
func (c *Controller) updateChainOnServer(member core.BlockInfo, chain core.ReplicaChain, gen uint64) error {
	_, err := callServer(c, member.Server, proto.UpdateChain,
		proto.UpdateChainReq{Block: member.ID, Chain: chain, Gen: gen})
	return err
}

// sealBlockOnServer fences a block against all further writes (reads
// keep serving) — the drain-time barrier taken before a migration
// snapshot, so no acknowledged write can postdate the snapshot.
func (c *Controller) sealBlockOnServer(member core.BlockInfo) error {
	_, err := callServer(c, member.Server, proto.UpdateChain, proto.UpdateChainReq{Block: member.ID, Seal: true})
	return err
}
