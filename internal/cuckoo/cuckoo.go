// Package cuckoo implements the hash table used inside every KV-store
// block. The paper (§5.3) uses libcuckoo for highly concurrent KV
// operations; this is a Go implementation of the same design:
// two-choice bucketized cuckoo hashing with 4-way buckets,
// breadth-first-search relocation on insert, and automatic growth.
// Like libcuckoo's preallocated queue, the relocation search runs in a
// bounded frontier it borrows from a short list all tables share, so
// an insert allocates only the key and value it keeps; Grow sizes a
// table once for a bulk load (a snapshot restore, a split's slot
// import) instead of doubling it through every size on the way.
//
// A Table is safe for concurrent use, with libcuckoo-style fine-grained
// locking: each operation touches at most two candidate buckets, so the
// common paths (Get, an overwrite, an insert into a bucket with a free
// slot, Delete) lock only the one or two cache-line-padded stripes
// guarding those buckets, in ascending stripe order. A table-wide
// resize lock is held shared by those paths and exclusively by the slow
// paths whose footprint is unbounded — BFS relocation, growth, Range,
// RemoveIf and Clear — so relocation never races a reader across
// buckets. Len and Bytes are lock-free atomic counters.
//
// Values stay where they are: Set and Update copy into the stored
// value's bytes when they fit, so a steady stream of overwrites
// allocates nothing and leaves no garbage behind. The price is that a
// stored value may change under a slice that aliases it, so every read
// copies the value out under the stripe lock that guards it (Get,
// AppendGet), and Range hands out values valid only during its callback.
package cuckoo

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"jiffy/internal/wire"
)

const (
	// slotsPerBucket matches libcuckoo's default associativity.
	slotsPerBucket = 4
	// maxBFSDepth bounds the relocation search; beyond this the table
	// grows instead.
	maxBFSDepth = 5
	// maxNodes bounds the BFS frontier to paths of ~maxBFSDepth kicks:
	// 2 roots, branching factor slotsPerBucket.
	maxNodes = 2 << (2 * maxBFSDepth)
	// keptFrontiers is how many idle frontiers the shared list keeps:
	// one per search running at once, each under its own table's
	// exclusive lock.
	keptFrontiers = 4
	// growLoad is the load factor, in sixteenths, that Grow sizes a
	// table for: below the 0.95–1.0 at which a table fills before its
	// relocation search fails, so a bulk load into the grown table does
	// not grow it again.
	growLoad = 15
	// minBuckets is the smallest table (power of two).
	minBuckets = 4
	// numStripes is the most bucket-lock stripes a table has (a power
	// of two). Bucket i is guarded by stripe i % numStripes; a table
	// smaller than numStripes buckets has one stripe per bucket, and
	// gains stripes as it grows.
	numStripes = 64
	stripeMask = numStripes - 1
)

type entry struct {
	hash uint64
	key  string
	val  []byte
}

type bucket struct {
	occupied [slotsPerBucket]bool
	entries  [slotsPerBucket]entry
}

// stripe is one bucket lock, padded out to its own cache line so
// contended neighbours don't false-share.
type stripe struct {
	mu sync.RWMutex
	_  [40]byte
}

// Table is a concurrent cuckoo hash table from string keys to byte
// values.
type Table struct {
	// resizeMu is held shared by every bucket-local operation and
	// exclusively by operations with unbounded bucket footprint (BFS
	// relocation, grow, Range, Clear). While it is held exclusively no
	// stripe locks are needed: every other path is blocked at the
	// shared acquisition.
	resizeMu sync.RWMutex

	// stripes, buckets and mask are written only under resizeMu held
	// exclusively; bucket-local paths read them under the shared lock.
	// len(stripes) is min(len(buckets), numStripes), so the stripe of
	// bucket i, i & stripeMask, is always in range.
	stripes []stripe
	buckets []bucket
	mask    uint64

	count atomic.Int64
	bytes atomic.Int64 // sum of len(key)+len(val) for accounting
}

// New creates a table pre-sized for hint entries.
func New(hint int) *Table {
	n := minBuckets
	for n*slotsPerBucket < hint {
		n <<= 1
	}
	t := &Table{}
	t.resize(n)
	return t
}

// resize installs an empty array of n buckets, and the stripes that
// guard it. Caller holds resizeMu exclusively, or owns t alone: no
// stripe is held either way.
func (t *Table) resize(n int) {
	t.buckets = make([]bucket, n)
	t.mask = uint64(n - 1)
	if s := min(n, numStripes); s != len(t.stripes) {
		t.stripes = make([]stripe, s)
	}
}

// hashKey is the hash both bucket choices derive from: FNV-64a,
// finalized with splitmix64's mixer. The KV store routes a key to its
// block by FNV-64a's low bits (ds.SlotOf), so the keys in one block
// share those bits: without the finalizer, a shard owning 32 of 1 024
// slots would put all its keys in 1/32 of the primary buckets and grow
// at half load.
func hashKey(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// i1 returns the primary bucket index for hash h.
func (t *Table) i1(h uint64) uint64 { return h & t.mask }

// i2 returns the alternate bucket index: the standard partial-key
// cuckoo trick — xor the bucket index with a hash of the tag, so the
// alternate of the alternate is the original.
func (t *Table) i2(i uint64, h uint64) uint64 {
	tag := (h >> 32) | 1 // never zero
	return (i ^ (tag * 0x5bd1e995)) & t.mask
}

// lockPair write-locks the stripes guarding buckets i and j in
// ascending stripe order (the deadlock-avoidance discipline); when both
// buckets share a stripe it locks once.
func (t *Table) lockPair(i, j uint64) {
	a, b := i&stripeMask, j&stripeMask
	if a == b {
		t.stripes[a].mu.Lock()
		return
	}
	if a > b {
		a, b = b, a
	}
	t.stripes[a].mu.Lock()
	t.stripes[b].mu.Lock()
}

func (t *Table) unlockPair(i, j uint64) {
	a, b := i&stripeMask, j&stripeMask
	t.stripes[a].mu.Unlock()
	if a != b {
		t.stripes[b].mu.Unlock()
	}
}

// rlockPair is lockPair for readers.
func (t *Table) rlockPair(i, j uint64) {
	a, b := i&stripeMask, j&stripeMask
	if a == b {
		t.stripes[a].mu.RLock()
		return
	}
	if a > b {
		a, b = b, a
	}
	t.stripes[a].mu.RLock()
	t.stripes[b].mu.RLock()
}

func (t *Table) runlockPair(i, j uint64) {
	a, b := i&stripeMask, j&stripeMask
	t.stripes[a].mu.RUnlock()
	if a != b {
		t.stripes[b].mu.RUnlock()
	}
}

// Get returns a copy of the value stored for key.
func (t *Table) Get(key string) ([]byte, bool) { return t.AppendGet(nil, key) }

// AppendGet appends the value stored for key to dst. The copy is taken
// under the stripe lock guarding the value, so a concurrent overwrite
// in place can never tear it.
func (t *Table) AppendGet(dst []byte, key string) ([]byte, bool) {
	h := hashKey(key)
	t.resizeMu.RLock()
	defer t.resizeMu.RUnlock()
	i1 := t.i1(h)
	i2 := t.i2(i1, h)
	t.rlockPair(i1, i2)
	defer t.runlockPair(i1, i2)
	for _, i := range [2]uint64{i1, i2} {
		if s := t.find(i, h, key); s >= 0 {
			return append(dst, t.buckets[i].entries[s].val...), true
		}
	}
	return dst, false
}

// Has reports whether key is stored.
func (t *Table) Has(key string) bool {
	h := hashKey(key)
	t.resizeMu.RLock()
	defer t.resizeMu.RUnlock()
	i1 := t.i1(h)
	i2 := t.i2(i1, h)
	t.rlockPair(i1, i2)
	defer t.runlockPair(i1, i2)
	return t.find(i1, h, key) >= 0 || t.find(i2, h, key) >= 0
}

// find returns the slot of bucket i holding key, or -1.
func (t *Table) find(i uint64, h uint64, key string) int {
	b := &t.buckets[i]
	for s := 0; s < slotsPerBucket; s++ {
		if b.occupied[s] && b.entries[s].hash == h && b.entries[s].key == key {
			return s
		}
	}
	return -1
}

// write is one Put, Set or Update on its way through the table: what
// to store and under which conditions, then what happened.
type write struct {
	val   []byte
	limit int  // bound on Bytes after a growing write; < 0 for none
	adopt bool // keep val itself (Put) instead of copying it in
	// update writes existing keys only, and returns the replaced value,
	// copied out first when its bytes are reused.
	update bool

	prev            []byte // the replaced value; the table no longer holds it
	existed, stored bool
}

// Put stores val under key and keeps val itself: the caller hands the
// slice over, and a later Set or Update of key may overwrite its bytes.
// It returns the value it replaced, which the table no longer holds,
// and whether key existed. Snapshot restores and slot imports, whose
// values are fresh copies already, load through Put.
func (t *Table) Put(key string, val []byte) (prev []byte, existed bool) {
	w := write{val: val, limit: -1, adopt: true}
	t.write(key, &w)
	return w.prev, w.existed
}

// Set stores a copy of val under key, unless the write would grow
// Bytes past limit (limit < 0: no bound). key and val may alias memory
// the caller reuses: an insert copies both, and an overwrite copies val
// into the stored value's bytes when they fit (see reuse). The bound is
// checked under the bucket locks the write happens under, against an
// atomic reservation, so concurrent writers cannot jointly overrun it.
// It reports whether key existed and whether val was stored.
func (t *Table) Set(key string, val []byte, limit int) (existed, stored bool) {
	w := write{val: val, limit: limit}
	t.write(key, &w)
	return w.existed, w.stored
}

// Update is Set for a key that exists: an absent key stays absent
// (found=false). It returns the replaced value as a slice the table no
// longer holds, copied out first when the overwrite reuses its bytes.
func (t *Table) Update(key string, val []byte, limit int) (prev []byte, found, stored bool) {
	w := write{val: val, limit: limit, update: true}
	t.write(key, &w)
	return w.prev, w.existed, w.stored
}

// reuse reports whether an overwrite with n bytes copies into the
// stored value's bytes: they must hold n, and at most twice n, so a
// shrunken value never pins an allocation twice its size.
func reuse(stored []byte, n int) bool {
	return n <= cap(stored) && cap(stored) <= 2*n
}

// reserve accounts delta more bytes unless that takes Bytes past limit
// (limit < 0: no bound); a write that does not grow always fits.
func (t *Table) reserve(delta, limit int) bool {
	if limit < 0 || delta <= 0 {
		t.bytes.Add(int64(delta))
		return true
	}
	for {
		cur := t.bytes.Load()
		if cur+int64(delta) > int64(limit) {
			return false
		}
		if t.bytes.CompareAndSwap(cur, cur+int64(delta)) {
			return true
		}
	}
}

// fresh builds the entry an insert places, copying key and value in
// unless the write adopts them.
func (w *write) fresh(h uint64, key string) entry {
	if w.adopt {
		return entry{hash: h, key: key, val: w.val}
	}
	return entry{hash: h, key: strings.Clone(key), val: append([]byte(nil), w.val...)}
}

// overwrite applies w to the entry holding its key. Caller holds the
// lock covering the entry's bucket.
func (t *Table) overwrite(e *entry, w *write) {
	w.existed = true
	old := e.val
	if !t.reserve(len(w.val)-len(old), w.limit) {
		return
	}
	w.stored = true
	switch {
	case w.adopt:
		e.val, w.prev = w.val, old
	case reuse(old, len(w.val)):
		if w.update {
			w.prev = append([]byte(nil), old...)
		}
		e.val = old[:len(w.val)]
		copy(e.val, w.val)
	default:
		e.val, w.prev = append([]byte(nil), w.val...), old
	}
}

// write runs w against key: bucket-local under two stripe locks when
// it can, else relocating under the exclusive resize lock.
func (t *Table) write(key string, w *write) {
	h := hashKey(key)

	// Fast path under the shared resize lock: overwrite or take a free
	// slot in a candidate bucket, holding only the two stripes involved.
	// Concurrent writes of the same key hash to the same stripes and
	// serialize there.
	t.resizeMu.RLock()
	i1 := t.i1(h)
	i2 := t.i2(i1, h)
	t.lockPair(i1, i2)
	done := t.writeLocal(i1, i2, h, key, w)
	t.unlockPair(i1, i2)
	t.resizeMu.RUnlock()
	if done {
		return
	}

	// Both candidate buckets full: relocation (or growth) has an
	// unbounded bucket footprint, so take the table exclusively. No
	// stripe locks are needed past this point.
	t.resizeMu.Lock()
	defer t.resizeMu.Unlock()
	i1 = t.i1(h)
	i2 = t.i2(i1, h)
	// Re-check: between the fast path and the exclusive acquisition
	// another writer may have inserted the key or freed a slot.
	if t.writeLocal(i1, i2, h, key, w) {
		return
	}
	if !t.reserve(len(key)+len(w.val), w.limit) {
		return
	}
	f := getFrontier()
	for e := w.fresh(h, key); !t.insertFresh(e, f); {
		t.grow(f)
	}
	frontiers.Put(f)
	t.count.Add(1)
	w.stored = true
}

// writeLocal attempts the bucket-local write: overwrite an existing
// entry or claim a free slot in either candidate bucket. It returns
// false when the key is absent, may be inserted and both buckets are
// full, so the caller must relocate. Caller holds the locks covering
// buckets i1 and i2.
func (t *Table) writeLocal(i1, i2 uint64, h uint64, key string, w *write) bool {
	for _, i := range [2]uint64{i1, i2} {
		if s := t.find(i, h, key); s >= 0 {
			t.overwrite(&t.buckets[i].entries[s], w)
			return true
		}
	}
	if w.update {
		return true
	}
	for _, i := range [2]uint64{i1, i2} {
		if s := t.freeSlot(i); s >= 0 {
			if t.reserve(len(key)+len(w.val), w.limit) {
				t.place(i, s, w.fresh(h, key))
				t.count.Add(1)
				w.stored = true
			}
			return true
		}
	}
	return false
}

// bfsNode is one step in the relocation search: an entry from slot
// `slot` of the parent node's bucket could be displaced into `bucket`.
// A bucket index fits 32 bits: 2^32 buckets would take 800 GiB.
type bfsNode struct {
	bucket uint32
	parent int32 // index into the frontier; -1 for the two root buckets
	slot   int32
}

// frontier is the queue of one relocation search, at its full size so
// a search never grows it.
type frontier [maxNodes]bfsNode

// frontiers is the short list every table's searches borrow a frontier
// from (getFrontier) and return it to (frontiers.Put). A search runs
// under its table's exclusive resizeMu, and one frontier serves a whole
// write, grow or Grow.
var frontiers = func() *wire.FreeList[*frontier] {
	l := new(wire.FreeList[*frontier])
	l.Init(keptFrontiers)
	return l
}()

// getFrontier borrows a frontier from the list, or makes one.
func getFrontier() *frontier {
	if f, ok := frontiers.Get(); ok {
		return f
	}
	return new(frontier)
}

// insertFresh places a new entry, relocating existing entries via a
// breadth-first search (libcuckoo-style) in f if both candidate buckets
// are full. Returns false when no relocation path exists within the
// search bound — the caller grows the table. Caller holds resizeMu
// exclusively: the search and the displacement walk touch arbitrary
// buckets.
func (t *Table) insertFresh(e entry, f *frontier) bool {
	i1 := t.i1(e.hash)
	i2 := t.i2(i1, e.hash)
	queue := append(f[:0], bfsNode{bucket: uint32(i1), parent: -1}, bfsNode{bucket: uint32(i2), parent: -1})
	for qi := 0; qi < len(queue); qi++ {
		n := queue[qi]
		if s := t.freeSlot(uint64(n.bucket)); s >= 0 {
			// Walk the displacement path backwards, moving each entry
			// one hop toward the free slot.
			cur, freeSlot := qi, s
			for queue[cur].parent >= 0 {
				p := queue[cur].parent
				ps := int(queue[cur].slot)
				pb := &t.buckets[queue[p].bucket]
				t.place(uint64(queue[cur].bucket), freeSlot, pb.entries[ps])
				pb.occupied[ps] = false
				pb.entries[ps] = entry{}
				freeSlot = ps
				cur = int(p)
			}
			t.place(uint64(queue[cur].bucket), freeSlot, e)
			return true
		}
		if len(queue)+slotsPerBucket > maxNodes {
			continue // stop expanding; drain remaining queued nodes
		}
		b := &t.buckets[n.bucket]
		for s := 0; s < slotsPerBucket; s++ {
			alt := t.i2(uint64(n.bucket), b.entries[s].hash)
			queue = append(queue, bfsNode{bucket: uint32(alt), parent: int32(qi), slot: int32(s)})
		}
	}
	return false
}

func (t *Table) freeSlot(i uint64) int {
	b := &t.buckets[i]
	for s := 0; s < slotsPerBucket; s++ {
		if !b.occupied[s] {
			return s
		}
	}
	return -1
}

func (t *Table) place(i uint64, s int, e entry) {
	b := &t.buckets[i]
	b.occupied[s] = true
	b.entries[s] = e
}

// grow doubles the bucket array. Caller holds resizeMu exclusively.
func (t *Table) grow(f *frontier) { t.rehash(len(t.buckets)*2, f) }

// rehash moves every entry into a new array of n buckets. Caller holds
// resizeMu exclusively.
func (t *Table) rehash(n int, f *frontier) {
	old := t.buckets
	t.resize(n)
	for bi := range old {
		for s := 0; s < slotsPerBucket; s++ {
			if !old[bi].occupied[s] {
				continue
			}
			e := old[bi].entries[s]
			if !t.insertFresh(e, f) {
				// With the table grown and re-inserting a subset,
				// failure here would indicate a pathological hash;
				// grow again (terminates: load factor halves each time).
				t.grow(f)
				if !t.insertFresh(e, f) {
					panic(fmt.Sprintf("cuckoo: cannot place key %q after growth", e.key))
				}
			}
		}
	}
}

// Grow makes room for n more entries: it resizes the table once, to
// the smallest size that holds them at a load of growLoad/16, so a bulk
// load does not double the table through every size and rehash every
// entry at each step. It never shrinks the table.
func (t *Table) Grow(n int) {
	t.resizeMu.Lock()
	defer t.resizeMu.Unlock()
	want := len(t.buckets)
	for want*slotsPerBucket*growLoad < (t.Len()+n)*16 {
		want <<= 1
	}
	if want == len(t.buckets) {
		return
	}
	f := getFrontier()
	t.rehash(want, f)
	frontiers.Put(f)
}

// Delete removes key, returning the removed value and whether it was
// present.
func (t *Table) Delete(key string) ([]byte, bool) {
	h := hashKey(key)
	t.resizeMu.RLock()
	defer t.resizeMu.RUnlock()
	i1 := t.i1(h)
	i2 := t.i2(i1, h)
	t.lockPair(i1, i2)
	defer t.unlockPair(i1, i2)
	for _, i := range [2]uint64{i1, i2} {
		if s := t.find(i, h, key); s >= 0 {
			return t.remove(i, s), true
		}
	}
	return nil, false
}

// remove empties slot s of bucket i and returns the value it held.
// Caller holds the lock covering bucket i.
func (t *Table) remove(i uint64, s int) []byte {
	b := &t.buckets[i]
	e := b.entries[s]
	b.occupied[s] = false
	b.entries[s] = entry{}
	t.count.Add(-1)
	t.bytes.Add(-int64(len(e.key) + len(e.val)))
	return e.val
}

// Len returns the number of entries. Lock-free.
func (t *Table) Len() int { return int(t.count.Load()) }

// Bytes returns the accounted payload size: sum of key and value
// lengths. Block usage tracking is built on this; it runs after every
// mutation, which is why it is a lock-free atomic load.
func (t *Table) Bytes() int { return int(t.bytes.Load()) }

// Range calls fn for every entry until fn returns false. The table is
// locked exclusively for the duration (Range visits every bucket, which
// the stripe discipline cannot cover); fn must not call table methods.
// val is valid only during fn — a later overwrite may reuse its bytes —
// so fn copies what it keeps.
func (t *Table) Range(fn func(key string, val []byte) bool) {
	t.resizeMu.Lock()
	defer t.resizeMu.Unlock()
	for bi := range t.buckets {
		b := &t.buckets[bi]
		for s := 0; s < slotsPerBucket; s++ {
			if b.occupied[s] {
				if !fn(b.entries[s].key, b.entries[s].val) {
					return
				}
			}
		}
	}
}

// RemoveIf removes every entry whose key match selects, handing each to
// fn, which may keep the value: the table no longer holds it. Like
// Range it locks the table exclusively, so the removal is atomic, and
// neither callback may call table methods.
func (t *Table) RemoveIf(match func(key string) bool, fn func(key string, val []byte)) {
	t.resizeMu.Lock()
	defer t.resizeMu.Unlock()
	for bi := range t.buckets {
		b := &t.buckets[bi]
		for s := 0; s < slotsPerBucket; s++ {
			if b.occupied[s] && match(b.entries[s].key) {
				key := b.entries[s].key
				fn(key, t.remove(uint64(bi), s))
			}
		}
	}
}

// Clear removes all entries, keeping the bucket array.
func (t *Table) Clear() {
	t.resizeMu.Lock()
	defer t.resizeMu.Unlock()
	for i := range t.buckets {
		t.buckets[i] = bucket{}
	}
	t.count.Store(0)
	t.bytes.Store(0)
}
