package ds

import (
	"fmt"
	"sort"
	"sync"

	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/cuckoo"
)

// KV is the partition engine for one shard of a Jiffy KV store (§5.3).
// The store hashes keys into a fixed slot space; each block owns one or
// more contiguous slot ranges (a slot lives entirely in one block), and
// stores its key-value pairs in a cuckoo hash table. Repartitioning
// reassigns half of an overloaded block's slots to a new block and
// moves the corresponding pairs (hash-based repartitioning, Table 2).
type KV struct {
	table    *cuckoo.Table
	numSlots int
	cap      int

	mu    sync.RWMutex
	owned []SlotRange
}

// NewKV creates a KV shard with the given byte capacity, total slot
// count and initially owned slot ranges.
func NewKV(capacity, numSlots int, owned []SlotRange) *KV {
	return &KV{
		table:    cuckoo.New(256),
		numSlots: numSlots,
		cap:      capacity,
		owned:    append([]SlotRange(nil), owned...),
	}
}

// Type implements Partition.
func (k *KV) Type() core.DSType { return core.DSKV }

// Capacity implements Partition.
func (k *KV) Capacity() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.cap
}

// slots returns the slot-space size under the lock (Restore may change
// it when a snapshot with a different configuration is loaded).
func (k *KV) slots() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.numSlots
}

// Bytes implements Partition.
func (k *KV) Bytes() int { return k.table.Bytes() }

// Len returns the number of stored pairs.
func (k *KV) Len() int { return k.table.Len() }

// Owned returns a copy of the owned slot ranges.
func (k *KV) Owned() []SlotRange {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return append([]SlotRange(nil), k.owned...)
}

// owns reports whether the shard currently owns the slot.
func (k *KV) owns(slot int) bool {
	k.mu.RLock()
	defer k.mu.RUnlock()
	for _, r := range k.owned {
		if r.Contains(slot) {
			return true
		}
	}
	return false
}

// checkOwned validates routing: a key whose slot this shard does not
// own means the client's partition map is stale.
func (k *KV) checkOwned(key string) error {
	slot := SlotOf(key, k.slots())
	if !k.owns(slot) {
		return fmt.Errorf("ds: slot %d not owned by this block: %w",
			slot, core.ErrStaleEpoch)
	}
	return nil
}

// Apply implements Partition.
//
//	OpPut:    [key, value] → []
//	OpGet:    [key]        → [value]
//	OpDelete: [key]        → [old value]
//	OpExists: [key]        → [] or ErrNotFound
//	OpUpdate: [key, value] → [old value]; ErrNotFound if absent
func (k *KV) Apply(op core.OpType, args [][]byte) ([][]byte, error) {
	switch op {
	case core.OpPut:
		if len(args) != 2 {
			return nil, fmt.Errorf("ds: put wants 2 args, got %d", len(args))
		}
		return nil, k.Put(string(args[0]), args[1])
	case core.OpGet:
		if len(args) != 1 {
			return nil, fmt.Errorf("ds: get wants 1 arg, got %d", len(args))
		}
		v, err := k.Get(string(args[0]))
		if err != nil {
			return nil, err
		}
		return [][]byte{v}, nil
	case core.OpDelete:
		if len(args) != 1 {
			return nil, fmt.Errorf("ds: delete wants 1 arg, got %d", len(args))
		}
		old, err := k.Delete(string(args[0]))
		if err != nil {
			return nil, err
		}
		return [][]byte{old}, nil
	case core.OpExists:
		if len(args) != 1 {
			return nil, fmt.Errorf("ds: exists wants 1 arg, got %d", len(args))
		}
		if err := k.checkOwned(string(args[0])); err != nil {
			return nil, err
		}
		if _, ok := k.table.Get(string(args[0])); !ok {
			return nil, core.ErrNotFound
		}
		return nil, nil
	case core.OpUpdate:
		if len(args) != 2 {
			return nil, fmt.Errorf("ds: update wants 2 args, got %d", len(args))
		}
		old, err := k.Update(string(args[0]), args[1])
		if err != nil {
			return nil, err
		}
		return [][]byte{old}, nil
	case core.OpUsage:
		return u64Vals(uint64(k.Bytes())), nil
	default:
		return nil, fmt.Errorf("ds: kv: %w (%v)", core.ErrWrongType, op)
	}
}

// ApplyView implements ViewReader for OpGet: the returned value aliases
// the stored bytes with no lease needed — Put and Update copy values in
// and never mutate stored bytes, and repartitioning moves slice headers,
// not bytes (immutable-values regime, see view.go).
func (k *KV) ApplyView(op core.OpType, args [][]byte) (View, bool, error) {
	if op != core.OpGet {
		return View{}, false, nil
	}
	if len(args) != 1 {
		return View{}, true, fmt.Errorf("ds: get wants 1 arg, got %d", len(args))
	}
	v, err := k.Get(string(args[0]))
	if err != nil {
		return View{}, true, err
	}
	return View{Vals: [][]byte{v}}, true, nil
}

// Put inserts or overwrites a pair. Writes that would push the shard
// beyond its capacity are rejected with ErrBlockFull; the proactive
// high-threshold split normally prevents ever reaching this.
func (k *KV) Put(key string, value []byte) error {
	if err := k.checkOwned(key); err != nil {
		return err
	}
	capacity := k.Capacity()
	if len(key)+len(value) > capacity {
		return fmt.Errorf("ds: pair of %d bytes exceeds block capacity %d: %w",
			len(key)+len(value), capacity, core.ErrTooLarge)
	}
	if k.table.Bytes()+len(key)+len(value) > capacity {
		if _, exists := k.table.Get(key); !exists {
			return core.ErrBlockFull
		}
	}
	k.table.Put(key, append([]byte(nil), value...))
	return nil
}

// Get returns the value for key.
func (k *KV) Get(key string) ([]byte, error) {
	if err := k.checkOwned(key); err != nil {
		return nil, err
	}
	v, ok := k.table.Get(key)
	if !ok {
		return nil, fmt.Errorf("ds: key %q: %w", key, core.ErrNotFound)
	}
	return v, nil
}

// Delete removes key, returning the old value.
func (k *KV) Delete(key string) ([]byte, error) {
	if err := k.checkOwned(key); err != nil {
		return nil, err
	}
	old, ok := k.table.Delete(key)
	if !ok {
		return nil, fmt.Errorf("ds: key %q: %w", key, core.ErrNotFound)
	}
	return old, nil
}

// Update overwrites an existing key, returning the previous value.
func (k *KV) Update(key string, value []byte) ([]byte, error) {
	if err := k.checkOwned(key); err != nil {
		return nil, err
	}
	if _, ok := k.table.Get(key); !ok {
		return nil, fmt.Errorf("ds: key %q: %w", key, core.ErrNotFound)
	}
	prev, _ := k.table.Put(key, append([]byte(nil), value...))
	return prev, nil
}

// KVEntry is one exported key-value pair.
type KVEntry struct {
	Key   string
	Value []byte
}

// ExportSlots atomically removes and returns every pair whose slot
// falls inside ranges, and disowns those ranges. This is the donor half
// of a split: after it returns, requests for moved keys fail with
// ErrStaleEpoch, prompting clients to refresh their partition map.
func (k *KV) ExportSlots(ranges []SlotRange) []KVEntry {
	k.mu.Lock()
	// Disown first so concurrent writers can no longer add to the
	// moving slots.
	k.owned = subtractRanges(k.owned, ranges)
	k.mu.Unlock()

	numSlots := k.slots()
	var out []KVEntry
	var doomed []string
	k.table.Range(func(key string, val []byte) bool {
		slot := SlotOf(key, numSlots)
		for _, r := range ranges {
			if r.Contains(slot) {
				out = append(out, KVEntry{Key: key, Value: val})
				doomed = append(doomed, key)
				break
			}
		}
		return true
	})
	for _, key := range doomed {
		k.table.Delete(key)
	}
	return out
}

// ImportEntries installs pairs and takes ownership of ranges: the
// recipient half of a split (or merge).
func (k *KV) ImportEntries(ranges []SlotRange, entries []KVEntry) {
	k.mu.Lock()
	k.owned = addRanges(k.owned, ranges)
	k.mu.Unlock()
	for _, e := range entries {
		k.table.Put(e.Key, e.Value)
	}
}

// SplitUpper computes the upper half of this shard's owned slots — the
// ranges the controller reassigns to a new block when this one
// overflows. Returns false if the shard owns fewer than two slots.
func (k *KV) SplitUpper() ([]SlotRange, bool) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	total := 0
	for _, r := range k.owned {
		total += r.Count()
	}
	if total < 2 {
		return nil, false
	}
	// Collect the top half of slots, preserving range structure.
	want := total / 2
	upper := make([]SlotRange, 0, len(k.owned))
	sorted := append([]SlotRange(nil), k.owned...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo > sorted[j].Lo })
	for _, r := range sorted {
		if want == 0 {
			break
		}
		take := r.Count()
		if take > want {
			take = want
		}
		upper = append(upper, SlotRange{Lo: r.Hi - take + 1, Hi: r.Hi})
		want -= take
	}
	return upper, true
}

// subtractRanges removes sub from owned (slot-accurate).
func subtractRanges(owned, sub []SlotRange) []SlotRange {
	out := append([]SlotRange(nil), owned...)
	for _, s := range sub {
		next := out[:0:0]
		for _, r := range out {
			if s.Hi < r.Lo || s.Lo > r.Hi {
				next = append(next, r)
				continue
			}
			if r.Lo < s.Lo {
				next = append(next, SlotRange{Lo: r.Lo, Hi: s.Lo - 1})
			}
			if r.Hi > s.Hi {
				next = append(next, SlotRange{Lo: s.Hi + 1, Hi: r.Hi})
			}
		}
		out = next
	}
	return out
}

// addRanges unions add into owned, coalescing adjacent ranges.
func addRanges(owned, add []SlotRange) []SlotRange {
	all := append(append([]SlotRange(nil), owned...), add...)
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Lo < all[j].Lo })
	out := []SlotRange{all[0]}
	for _, r := range all[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi+1 {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}

// kvSnapshot is the serialized form of a KV shard.
type kvSnapshot struct {
	Entries  []KVEntry
	NumSlots int
	Cap      int
	Owned    []SlotRange
}

// Snapshot implements Partition.
func (k *KV) Snapshot() ([]byte, error) {
	var entries []KVEntry
	k.table.Range(func(key string, val []byte) bool {
		entries = append(entries, KVEntry{Key: key, Value: val})
		return true
	})
	return codec.Marshal(&kvSnapshot{
		Entries:  entries,
		NumSlots: k.numSlots,
		Cap:      k.cap,
		Owned:    k.Owned(),
	})
}

// Restore implements Partition.
func (k *KV) Restore(snapshot []byte) error {
	var s kvSnapshot
	if err := codec.Unmarshal(snapshot, &s); err != nil {
		return fmt.Errorf("ds: kv snapshot: %w", err)
	}
	k.mu.Lock()
	k.numSlots = s.NumSlots
	k.cap = s.Cap
	k.owned = s.Owned
	k.mu.Unlock()
	k.table.Clear()
	for _, e := range s.Entries {
		k.table.Put(e.Key, e.Value)
	}
	return nil
}
