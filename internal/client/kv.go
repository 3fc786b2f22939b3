package client

import (
	"context"
	"errors"

	"jiffy/internal/core"
	"jiffy/internal/ds"
)

// KV is the client handle for a Jiffy KV store (§5.3). Operations hash
// the key to a slot and route to the block owning the slot via the
// cached partition map; the op pipeline (pipeline.go) recovers from
// repartitioning underneath them.
type KV struct {
	mapRouted
	h *handle
}

// Path returns the handle's address prefix.
func (k *KV) Path() core.Path { return k.h.path }

// route finds the block owning key's slot. A slot without an owner
// means the cached map is stale (a repartition is in flight).
func (k *KV) route(_ core.OpType, key string, _ int) (ds.PartitionEntry, error) {
	m := k.h.snapshot()
	if m.NumSlots > 0 {
		if e, ok := m.BlockForSlot(ds.SlotOf(key, m.NumSlots)); ok {
			return e, nil
		}
	}
	return ds.PartitionEntry{}, core.ErrStaleEpoch
}

// Put stores a key-value pair.
func (k *KV) Put(ctx context.Context, key string, value []byte) error {
	_, _, err := k.h.run(ctx, core.OpPut, key, 0, [][]byte{[]byte(key), value}, nil, nil)
	return err
}

// Get fetches the value for key.
func (k *KV) Get(ctx context.Context, key string) ([]byte, error) {
	var res [1][]byte
	return one(k.h.run(ctx, core.OpGet, key, 0, [][]byte{[]byte(key)}, res[:0], nil))
}

// Exists reports whether key is present.
func (k *KV) Exists(ctx context.Context, key string) (bool, error) {
	_, _, err := k.h.run(ctx, core.OpExists, key, 0, [][]byte{[]byte(key)}, nil, nil)
	if errors.Is(err, core.ErrNotFound) {
		return false, nil
	}
	return err == nil, err
}

// Delete removes key and returns the previous value.
func (k *KV) Delete(ctx context.Context, key string) ([]byte, error) {
	var res [1][]byte
	return one(k.h.run(ctx, core.OpDelete, key, 0, [][]byte{[]byte(key)}, res[:0], nil))
}

// Update overwrites an existing key and returns the previous value;
// fails with ErrNotFound if the key is absent.
func (k *KV) Update(ctx context.Context, key string, value []byte) ([]byte, error) {
	var res [1][]byte
	return one(k.h.run(ctx, core.OpUpdate, key, 0, [][]byte{[]byte(key), value}, res[:0], nil))
}

// Subscribe registers for notifications on the given op types across
// all blocks of the KV store (ds.subscribe in Table 1).
func (k *KV) Subscribe(ctx context.Context, ops ...core.OpType) (*Listener, error) {
	return k.h.c.subscribe(ctx, k.h, ops)
}
