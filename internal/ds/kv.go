package ds

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"unsafe"

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
//
// Values stay where they are: an overwrite copies into the stored bytes
// when they fit (cuckoo.Table.Set), so every read copies its value out
// under the bucket lock that guards it — Get, AppendAnswer, Snapshot and
// SnapshotSlots all do — and no stored value is ever handed out.
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

// lockOwned validates routing — a key whose slot this shard does not
// own means the client's partition map is stale — and on success
// returns with k.mu read-locked: the caller unlocks once its table op
// is done. OpDisownSlots disowns under the write lock, so an op lands
// either before its slot is disowned, and is pulled with it, or after,
// and is refused; never in between, where a write would be stranded in
// the donor.
func (k *KV) lockOwned(key string) error {
	k.mu.RLock()
	if k.inSlots(k.owned, key) {
		return nil
	}
	k.mu.RUnlock()
	return fmt.Errorf("ds: slot %d not owned by this block: %w", SlotOf(key, k.numSlots), core.ErrStaleEpoch)
}

// keyOf views a key argument as a string without copying it. The
// string aliases the request frame, so nothing may keep it past the op:
// the table copies a key it inserts (cuckoo.Table.Set), and an error
// formats it into its own message.
func keyOf(arg []byte) string { return unsafe.String(unsafe.SliceData(arg), len(arg)) }

// Apply implements Partition.
//
//	OpPut:    [key, value] → []
//	OpGet:    [key]        → [value]
//	OpDelete: [key]        → [old value]
//	OpExists: [key]        → [] or ErrNotFound
//	OpUpdate: [key, value] → [old value]; ErrNotFound if absent
//	OpDisownSlots: [ranges, drop] → [] (SlotArgs)
//	OpOwnSlots:    [ranges]       → []
func (k *KV) Apply(op core.OpType, args [][]byte) ([][]byte, error) {
	switch op {
	case core.OpPut:
		if len(args) != 2 {
			return nil, fmt.Errorf("ds: put wants 2 args, got %d", len(args))
		}
		return nil, k.Put(keyOf(args[0]), args[1])
	case core.OpGet, core.OpUsage:
		return applyAnswer(k, op, args)
	case core.OpDelete:
		if len(args) != 1 {
			return nil, fmt.Errorf("ds: delete wants 1 arg, got %d", len(args))
		}
		old, err := k.Delete(keyOf(args[0]))
		if err != nil {
			return nil, err
		}
		return [][]byte{old}, nil
	case core.OpExists:
		if len(args) != 1 {
			return nil, fmt.Errorf("ds: exists wants 1 arg, got %d", len(args))
		}
		key := keyOf(args[0])
		if err := k.lockOwned(key); err != nil {
			return nil, err
		}
		defer k.mu.RUnlock()
		if !k.table.Has(key) {
			return nil, core.ErrNotFound
		}
		return nil, nil
	case core.OpUpdate:
		if len(args) != 2 {
			return nil, fmt.Errorf("ds: update wants 2 args, got %d", len(args))
		}
		old, err := k.Update(keyOf(args[0]), args[1])
		if err != nil {
			return nil, err
		}
		return [][]byte{old}, nil
	case core.OpDisownSlots, core.OpOwnSlots:
		return nil, k.applySlots(op, args)
	default:
		return nil, fmt.Errorf("ds: kv: %w (%v)", core.ErrWrongType, op)
	}
}

// appendAnswer is the appending form (AppendAnswer) of a get and of the
// usage.
func (k *KV) appendAnswer(dst []byte, op core.OpType, args [][]byte) ([]byte, bool, error) {
	switch op {
	case core.OpGet:
		out, err := k.appendGet(dst, args)
		return out, true, err
	case core.OpUsage:
		return appendU64(dst, uint64(k.Bytes())), true, nil
	}
	return dst, false, nil
}

// appendGet answers OpGet: the one-value result vector is encoded onto
// dst, the value copied in under its bucket lock. A single op's value
// thus goes straight into its pooled response, and a batched one into
// the batch response.
func (k *KV) appendGet(dst []byte, args [][]byte) ([]byte, error) {
	if len(args) != 1 {
		return dst, fmt.Errorf("ds: get wants 1 arg, got %d", len(args))
	}
	key := keyOf(args[0])
	if err := k.lockOwned(key); err != nil {
		return dst, err
	}
	defer k.mu.RUnlock()
	n := len(dst)
	// A one-value vector: u16 count 1, then the value's u32 length,
	// backfilled once the value is in.
	out, ok := k.table.AppendGet(append(dst, 0, 1, 0, 0, 0, 0), key)
	if !ok {
		return dst, notFound(key)
	}
	binary.BigEndian.PutUint32(out[n+2:n+6], uint32(len(out)-n-6))
	return out, nil
}

// notFound is the answer for an absent key.
func notFound(key string) error { return fmt.Errorf("ds: key %q: %w", key, core.ErrNotFound) }

// room returns the shard's capacity, or ErrTooLarge when the pair alone
// exceeds it. Caller holds k.mu.
func (k *KV) room(key string, value []byte) (int, error) {
	if len(key)+len(value) > k.cap {
		return 0, fmt.Errorf("ds: pair of %d bytes exceeds block capacity %d: %w",
			len(key)+len(value), k.cap, core.ErrTooLarge)
	}
	return k.cap, nil
}

// Put inserts or overwrites a pair; key and value may alias memory the
// caller reuses. A write that would grow the shard past its capacity —
// an insert or an overwrite with a longer value — is refused with
// ErrBlockFull, checked together with the write; the proactive
// high-threshold split normally prevents ever reaching this.
func (k *KV) Put(key string, value []byte) error {
	if err := k.lockOwned(key); err != nil {
		return err
	}
	defer k.mu.RUnlock()
	capacity, err := k.room(key, value)
	if err != nil {
		return err
	}
	if _, ok := k.table.Set(key, value, capacity); !ok {
		return core.ErrBlockFull
	}
	return nil
}

// Get returns a copy of the value for key.
func (k *KV) Get(key string) ([]byte, error) {
	if err := k.lockOwned(key); err != nil {
		return nil, err
	}
	defer k.mu.RUnlock()
	v, ok := k.table.Get(key)
	if !ok {
		return nil, notFound(key)
	}
	return v, nil
}

// Delete removes key, returning the old value.
func (k *KV) Delete(key string) ([]byte, error) {
	if err := k.lockOwned(key); err != nil {
		return nil, err
	}
	defer k.mu.RUnlock()
	old, ok := k.table.Delete(key)
	if !ok {
		return nil, notFound(key)
	}
	return old, nil
}

// Update overwrites an existing key, returning the previous value. It
// is bounded by the capacity like Put.
func (k *KV) Update(key string, value []byte) ([]byte, error) {
	if err := k.lockOwned(key); err != nil {
		return nil, err
	}
	defer k.mu.RUnlock()
	capacity, err := k.room(key, value)
	if err != nil {
		return nil, err
	}
	prev, found, ok := k.table.Update(key, value, capacity)
	switch {
	case !found:
		return nil, notFound(key)
	case !ok:
		return nil, core.ErrBlockFull
	}
	return prev, nil
}

// KVEntry is one key-value pair of a snapshot.
type KVEntry struct {
	Key   string
	Value []byte
}

// SlotArgs is the argument vector of a slot ownership op: the ranges,
// and for OpDisownSlots whether their pairs are dropped too.
func SlotArgs(op core.OpType, ranges []SlotRange, drop bool) [][]byte {
	enc, _ := codec.Marshal(ranges) // ints and slices always encode
	if op == core.OpOwnSlots {
		return [][]byte{enc}
	}
	flag, _ := codec.Marshal(drop)
	return [][]byte{enc, flag}
}

// applySlots runs a slot ownership op on its SlotArgs: own the ranges,
// whose pairs a pull has loaded (LoadSlots), or disown them and, with
// drop, remove their pairs. It takes the write lock, so no op that
// checked ownership (lockOwned) is still in the table meanwhile, and
// none that checks later owns disowned ranges: a write lands before the
// disown, and is pulled with its slot, or is refused stale.
func (k *KV) applySlots(op core.OpType, args [][]byte) error {
	var ranges []SlotRange
	var drop bool
	ok := op == core.OpOwnSlots && len(args) == 1 ||
		op == core.OpDisownSlots && len(args) == 2 && codec.Unmarshal(args[1], &drop) == nil
	if !ok || codec.Unmarshal(args[0], &ranges) != nil {
		return fmt.Errorf("ds: malformed %v args", op)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if op == core.OpOwnSlots {
		k.owned = AddRanges(k.owned, ranges)
		return nil
	}
	k.owned = SubtractRanges(k.owned, ranges)
	if drop {
		k.table.RemoveIf(func(key string) bool { return k.inSlots(ranges, key) }, func(string, []byte) {})
	}
	return nil
}

// inSlots reports whether key's slot falls inside ranges.
func (k *KV) inSlots(ranges []SlotRange, key string) bool {
	slot := SlotOf(key, k.numSlots)
	for _, r := range ranges {
		if r.Contains(slot) {
			return true
		}
	}
	return false
}

// SnapshotSlots serializes the pairs whose slots fall inside ranges,
// owned or not, with no ownership: what a new member of a split pulls
// from the donor's tail once the donor has disowned the ranges.
func (k *KV) SnapshotSlots(ranges []SlotRange) ([]byte, error) {
	return k.snapshot(func(key string) bool { return k.inSlots(ranges, key) }, nil)
}

// LoadSlots replaces the pairs in ranges with a SnapshotSlots' pairs,
// taking no ownership: an OpOwnSlots does, once every member loaded.
// A shard that owns any of ranges refuses, since its pairs there are
// live.
func (k *KV) LoadSlots(ranges []SlotRange, snapshot []byte) error {
	var s kvSnapshot
	if err := codec.Unmarshal(snapshot, &s); err != nil {
		return fmt.Errorf("ds: kv slots snapshot: %w", err)
	}
	if owned := k.Owned(); !slices.Equal(SubtractRanges(owned, ranges), owned) {
		return fmt.Errorf("ds: load of owned slots %v: %w", ranges, core.ErrStaleEpoch)
	}
	k.table.RemoveIf(func(key string) bool { return k.inSlots(ranges, key) }, func(string, []byte) {})
	for _, e := range s.Entries {
		k.table.Put(e.Key, e.Value)
	}
	return nil
}

// UpperHalf returns the top half of the slots ranges cover — what a
// split hands to the new shard — or nil when they cover fewer than two.
func UpperHalf(ranges []SlotRange) []SlotRange {
	want := 0
	for _, r := range ranges {
		want += r.Count()
	}
	want /= 2
	sorted := slices.Clone(ranges)
	slices.SortFunc(sorted, func(a, b SlotRange) int { return b.Lo - a.Lo })
	var upper []SlotRange
	for _, r := range sorted {
		if want == 0 {
			break
		}
		take := min(r.Count(), want)
		upper = append(upper, SlotRange{Lo: r.Hi - take + 1, Hi: r.Hi})
		want -= take
	}
	return upper
}

// SubtractRanges removes sub from owned (slot-accurate).
func SubtractRanges(owned, sub []SlotRange) []SlotRange {
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

// AddRanges unions add into owned, coalescing adjacent ranges.
func AddRanges(owned, add []SlotRange) []SlotRange {
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
func (k *KV) Snapshot() ([]byte, error) { return k.snapshot(nil, k.Owned()) }

// snapshot serializes the pairs keep selects (nil: all) with owned.
// Every value is copied out under the table lock, into one arena: an
// entry's bytes sit where the arena held them when it was appended, and
// growth moves later appends, never earlier ones.
func (k *KV) snapshot(keep func(key string) bool, owned []SlotRange) ([]byte, error) {
	var entries []KVEntry
	var arena []byte
	k.table.Range(func(key string, val []byte) bool {
		if keep != nil && !keep(key) {
			return true
		}
		arena = append(arena, val...)
		entries = append(entries, KVEntry{Key: key, Value: arena[len(arena)-len(val) : len(arena) : len(arena)]})
		return true
	})
	return codec.Marshal(&kvSnapshot{
		Entries:  entries,
		NumSlots: k.numSlots,
		Cap:      k.cap,
		Owned:    owned,
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
