package client

import (
	"context"
	"fmt"

	"jiffy/internal/core"
	"jiffy/internal/ds"
)

// Custom is the raw handle for application-defined data structures
// (ds.Register): it exposes block-addressed operation execution with
// the same staleness recovery as the typed handles. Applications
// usually wrap it in their own typed API, the way §5's built-ins wrap
// the internal block interface.
type Custom struct {
	mapRouted
	h *handle
}

// OpenCustom opens a handle to the custom structure at path,
// validating its registered type code.
func (c *Client) OpenCustom(ctx context.Context, path core.Path, t core.DSType) (*Custom, error) {
	h, err := c.newHandle(ctx, path, t)
	if err != nil {
		return nil, err
	}
	cu := &Custom{h: h}
	h.s = cu
	return cu, nil
}

// Path returns the handle's address prefix.
func (cu *Custom) Path() core.Path { return cu.h.path }

// Blocks returns the structure's current chunk count (after a refresh).
func (cu *Custom) Blocks(ctx context.Context) (int, error) {
	if err := cu.h.refresh(ctx); err != nil {
		return 0, err
	}
	return len(cu.h.snapshot().Blocks), nil
}

// route finds the block holding chunk; custom structures grow only
// through Grow, so a chunk the map lacks does not exist.
func (cu *Custom) route(_ core.OpType, _ string, chunk int) (ds.PartitionEntry, error) {
	m := cu.h.snapshot()
	e, ok := m.BlockForChunk(chunk)
	if !ok {
		return e, fmt.Errorf("client: custom chunk %d: %w", chunk, core.ErrNotFound)
	}
	return e, nil
}

// Exec runs one operation against chunk index ci with the recovery of
// the typed handles. Mutations route to the chunk's chain head; what
// is not a mutation is taken to be an idempotent read, routed to the
// tail, and may be hedged or served by another chain member.
func (cu *Custom) Exec(ctx context.Context, ci int, op core.OpType, args ...[]byte) ([][]byte, error) {
	res, _, err := cu.h.run(ctx, op, "", ci, args, nil)
	return res, err
}

// Grow asks the controller to append one more block to the structure
// (custom structures scale like files: new chunks, no data movement).
func (cu *Custom) Grow(ctx context.Context) error {
	m := cu.h.snapshot()
	last, ok := m.Tail()
	if !ok {
		return core.ErrNotFound
	}
	if err := cu.h.requestScale(ctx, last.Info.ID); err != nil {
		return err
	}
	return cu.h.refresh(ctx)
}

// Subscribe registers for notifications on the structure's blocks.
func (cu *Custom) Subscribe(ctx context.Context, ops ...core.OpType) (*Listener, error) {
	return cu.h.c.subscribe(ctx, cu.h, ops)
}
