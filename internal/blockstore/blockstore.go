// Package blockstore implements the memory-server data plane core: a
// container of fixed-size blocks, each hosting one data-structure
// partition, with usage tracking against the high/low repartition
// thresholds (§3.3). When a mutation pushes a block across a threshold
// the store invokes the overload/underload signal callback — the first
// step of the Fig. 8 repartitioning protocol. The RPC surface around
// this container lives in internal/server.
package blockstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/obs"
)

// Signal is the threshold-crossing callback: over is true for a
// high-threshold (overload) crossing, false for a low-threshold
// (underload) crossing. Called synchronously from the mutating
// operation's goroutine; implementations should hand off to a worker.
type Signal func(path core.Path, block core.BlockID, over bool)

// Block is one hosted memory block.
type Block struct {
	ID        core.BlockID
	Path      core.Path
	Partition ds.Partition
	// Chunk is the file chunk index or queue segment sequence number.
	Chunk int
	// Tenant caches the path's job component (Path.Job splits the path
	// string on every call; admission control needs the tenant on every
	// data op). Set at creation alongside Path.
	Tenant string

	// chain is the block's replication chain (nil = unreplicated),
	// behind an atomic pointer: chain repair replaces it in place while
	// the data path reads it lock-free on every mutation.
	chain atomic.Pointer[core.ReplicaChain]

	// signaled tracks the threshold state to de-duplicate signals:
	// 0 = normal, 1 = over signaled, -1 = under signaled.
	signaled atomic.Int32
	// armedUnder becomes true once usage exceeds the low threshold, so
	// freshly created empty blocks don't immediately signal underload.
	armedUnder atomic.Bool
	// growth is open while the block's over-signal is in flight and
	// closed once it is answered, failed or dropped (EndGrowth): an
	// append refused as full waits on it for the link to the next chunk.
	growMu sync.Mutex
	growth chan struct{}

	// Replication ordering state (only used when the chain is
	// non-empty). At the chain head, replMu serializes mutation
	// application with sequence assignment so the propagation stream's
	// sequence order equals local apply order; at replicas,
	// applySeq/applyCond make forwarded mutations apply in that same
	// order even though the RPC layer dispatches them concurrently.
	// replGen identifies the chain configuration the sequence stream
	// belongs to: a repair splice resets the sequence counters and bumps
	// the generation, so stragglers from the old chain fail fast instead
	// of waiting for sequence numbers that will never arrive.
	replMu    sync.Mutex
	replSeq   uint64
	replGen   uint64
	applySeq  uint64
	applyCond *sync.Cond
	// halted is set by Store.Halt as the server shuts down: a hop
	// parked in ApplyInOrder, or arriving later, fails at once.
	halted bool
	// waitSince/waitSeq stamp the oldest hop parked in ApplyInOrder:
	// when it began to wait and the seq it awaits (zero time when none
	// is parked). Only the wait path stamps; every wake clears the stamp
	// and a hop that must wait on stamps it afresh, so after a gap
	// closes the stamp follows the seq the remaining hops now await.
	waitSince time.Time
	waitSeq   uint64

	// sealed permanently fences the block against mutations (reads keep
	// serving): a drain seals the source before taking its migration
	// snapshot, so no write can be acknowledged that the snapshot might
	// miss. Never cleared — a sealed block is about to be deleted.
	sealed atomic.Bool

	// NumSlots is the KV hash-slot space size the partition was created
	// with, recorded so a demoted block can be rebuilt with the same
	// layout on rehydration.
	NumSlots int

	// Tiering state. tierState is the block's residency (TierMemory /
	// TierDemoting / TierTiered); ops pin it resident via BeginOp/EndOp
	// before touching the partition, and the demotion path flips it to
	// Demoting then waits for inflight to drain before snapshotting.
	// lastAccess/promotedAt are heat timestamps in store heat units
	// (see Store.HeatNow) — stamped allocation-free on the data path.
	tierState  atomic.Int32
	inflight   atomic.Int64
	lastAccess atomic.Int64
	promotedAt atomic.Int64

	// TierMu serializes demotion and rehydration for this block and
	// guards TierKey/TierGen. It is never held while the partition is
	// serving ops — only across the tier state transitions themselves.
	TierMu sync.Mutex
	// TierKey is the persist-tier key holding the demoted object
	// ("" when resident). TierGen fences stale tier objects: it bumps
	// on every demotion, and the controller ignores reports older than
	// the generation it has recorded.
	TierKey string
	TierGen uint64
}

// Tier states for Block.tierState.
const (
	// TierMemory: resident, serving ops.
	TierMemory int32 = iota
	// TierDemoting: a demotion is draining in-flight ops; new ops wait
	// for the transition to finish and then rehydrate.
	TierDemoting
	// TierTiered: the partition's contents live in the persist tier;
	// first access rehydrates.
	TierTiered
)

// TierState returns the block's residency state.
func (b *Block) TierState() int32 { return b.tierState.Load() }

// SetTierState publishes a residency transition. Callers hold TierMu.
func (b *Block) SetTierState(s int32) { b.tierState.Store(s) }

// BeginOp pins the block resident for one operation. It returns false
// when the block is not in memory (tiered, or a demotion is in
// flight) — the caller must rehydrate and retry. The recheck after
// incrementing closes the race with a concurrent demotion: the
// demoter flips the state to Demoting first and then waits for
// inflight to reach zero, so an op that raced past the first check is
// either counted (demotion waits for it) or bounced here.
func (b *Block) BeginOp() bool {
	if b.tierState.Load() != TierMemory {
		return false
	}
	b.inflight.Add(1)
	if b.tierState.Load() != TierMemory {
		b.inflight.Add(-1)
		return false
	}
	return true
}

// EndOp releases the residency pin taken by BeginOp.
func (b *Block) EndOp() { b.inflight.Add(-1) }

// Inflight returns the number of operations currently pinning the
// block resident.
func (b *Block) Inflight() int64 { return b.inflight.Load() }

// Touch stamps the block's last-access time with the store's current
// heat value — one atomic store, no clock read, on the data path.
func (b *Block) Touch(heat int64) { b.lastAccess.Store(heat) }

// LastAccess returns the block's last-access heat stamp.
func (b *Block) LastAccess() int64 { return b.lastAccess.Load() }

// PromotedAt returns the heat stamp of the block's creation or last
// rehydration — the anchor of the anti-thrash cooldown window.
func (b *Block) PromotedAt() int64 { return b.promotedAt.Load() }

// SetPromotedAt stamps the promotion time (creation and rehydration).
func (b *Block) SetPromotedAt(heat int64) { b.promotedAt.Store(heat) }

// Chain returns the block's current replication chain (nil when
// unreplicated). The returned slice must not be mutated.
func (b *Block) Chain() core.ReplicaChain {
	if p := b.chain.Load(); p != nil {
		return *p
	}
	return nil
}

// SetChain installs a replication chain and generation, resetting the
// sequence stream: the chain's members were just (re)synchronized by
// snapshot, so the next mutation starts a fresh stream at sequence 0.
// Waiters from the previous generation are woken and fail fast.
func (b *Block) SetChain(chain core.ReplicaChain, gen uint64) {
	b.replMu.Lock()
	b.chain.Store(&chain)
	b.replSeq = 0
	b.applySeq = 0
	b.replGen = gen
	b.wakeAppliersLocked()
	b.replMu.Unlock()
}

// Seal permanently fences the block against mutations; reads still
// serve. Head-side, unreplicated, and forwarded writes all fail with
// ErrStaleEpoch from the moment Seal returns, and replicas waiting on
// the sequence stream are woken to fail fast.
func (b *Block) Seal() {
	b.replMu.Lock()
	b.sealed.Store(true)
	b.wakeAppliersLocked()
	b.replMu.Unlock()
}

// Sealed reports whether the block has been fenced by Seal.
func (b *Block) Sealed() bool { return b.sealed.Load() }

// NextReplSeq atomically applies head-side mutations via fn, which
// keeps its own answers and returns how many mutations it applied, and
// assigns them as many consecutive replication sequence numbers, the
// first of which it returns, stamped with the chain generation they
// belong to: a run of appends takes one hold for all its records. The
// chain snapshot is read under the same lock SetChain writes it, so the
// returned chain always matches the returned generation — a concurrent
// repair splice can never pair a new generation with the old layout.
func (b *Block) NextReplSeq(fn func() int) (chain core.ReplicaChain, seq, gen uint64, err error) {
	b.replMu.Lock()
	defer b.replMu.Unlock()
	if b.sealed.Load() {
		return nil, 0, 0, fmt.Errorf("blockstore: block %v sealed for migration: %w",
			b.ID, core.ErrStaleEpoch)
	}
	n := fn()
	if p := b.chain.Load(); p != nil {
		chain = *p
	}
	seq = b.replSeq
	gen = b.replGen
	b.replSeq += uint64(n)
	return chain, seq, gen, nil
}

// ApplyInOrder blocks until it is seq's turn at this replica, applies
// fn (which keeps its own answer), and releases the next sequence
// number. A mutation from a different chain generation than the
// replica's current one — or any mutation once the block is sealed —
// returns ErrStaleEpoch
// immediately (or as soon as a repair bumps the generation mid-wait):
// its sender is propagating along a chain that no longer exists, and
// must refresh. Once the store is halted it returns ErrClosed, so
// a hop waiting for a seq that never comes does not hold up shutdown. The returned chain is this replica's chain for gen,
// read under the lock SetChain writes it — exactly as NextReplSeq does
// for the head — so the mutation continues along the layout it was
// admitted under even if a repair splice lands right after. Every
// member of a generation is installed with the same chain, which is
// why the hop does not carry one.
func (b *Block) ApplyInOrder(seq, gen uint64, fn func() error) (chain core.ReplicaChain, err error) {
	b.replMu.Lock()
	defer b.replMu.Unlock()
	if b.applyCond == nil {
		b.applyCond = sync.NewCond(&b.replMu)
	}
	for b.applySeq != seq && b.replGen == gen && !b.sealed.Load() && !b.halted {
		if b.waitSince.IsZero() {
			b.waitSince, b.waitSeq = time.Now(), b.applySeq
		}
		b.applyCond.Wait()
	}
	if b.halted {
		return nil, fmt.Errorf("blockstore: block %v: server shutting down: %w", b.ID, core.ErrClosed)
	}
	if b.replGen != gen || b.sealed.Load() {
		return nil, fmt.Errorf("blockstore: block %v: chain generation %d superseded by %d: %w",
			b.ID, gen, b.replGen, core.ErrStaleEpoch)
	}
	err = fn()
	b.applySeq++
	b.wakeAppliersLocked()
	return b.Chain(), err
}

// wakeAppliersLocked clears the wait stamp and wakes every hop parked
// in ApplyInOrder to re-check its turn. Caller holds replMu.
func (b *Block) wakeAppliersLocked() {
	b.waitSince = time.Time{}
	if b.applyCond != nil {
		b.applyCond.Broadcast()
	}
}

// ApplyWait reports how long the oldest hop parked in ApplyInOrder has
// waited and the seq it awaits; age is 0 when no hop is parked.
func (b *Block) ApplyWait() (age time.Duration, seq uint64) {
	b.replMu.Lock()
	defer b.replMu.Unlock()
	if b.waitSince.IsZero() {
		return 0, 0
	}
	return time.Since(b.waitSince), b.waitSeq
}

// halt wakes every hop parked in ApplyInOrder and fails the later
// ones (see Store.Halt).
func (b *Block) halt() {
	b.replMu.Lock()
	b.halted = true
	b.wakeAppliersLocked()
	b.replMu.Unlock()
}

// Growth returns a channel that is closed once the block's over-signal
// in flight is answered, or nil when none is in flight.
func (b *Block) Growth() <-chan struct{} {
	b.growMu.Lock()
	defer b.growMu.Unlock()
	return b.growth
}

// latchOver latches the over-signal and opens the growth channel in
// one step, under the lock Growth reads it under: an append refused
// while the signal is being sent finds it in flight.
func (b *Block) latchOver() bool {
	b.growMu.Lock()
	defer b.growMu.Unlock()
	if !b.signaled.CompareAndSwap(0, 1) && !b.signaled.CompareAndSwap(-1, 1) {
		return false
	}
	if b.growth == nil {
		b.growth = make(chan struct{})
	}
	return true
}

// EndGrowth wakes everything waiting on Growth: the over-signal was
// answered, failed or dropped. Ending no growth is harmless.
func (b *Block) EndGrowth() {
	b.growMu.Lock()
	if b.growth != nil {
		close(b.growth)
		b.growth = nil
	}
	b.growMu.Unlock()
}

// ChainGen returns the block's chain together with the replication
// generation it was installed under, as one consistent pair.
func (b *Block) ChainGen() (core.ReplicaChain, uint64) {
	b.replMu.Lock()
	defer b.replMu.Unlock()
	return b.Chain(), b.replGen
}

// blockShards is the number of copy-on-write shards of a store's
// block table (a power of two). The controller mints block IDs from one
// counter, so a server's blocks spread evenly over the shards, and a
// create or delete copies about one shard's worth of entries: a few at
// the block counts a server hosts, however many that is.
const blockShards = 512

// blockMap is the value type behind each shard's copy-on-write pointer.
type blockMap = map[core.BlockID]*Block

// noBlocks is the empty map every shard starts at. It is never written:
// a create publishes a copy.
var noBlocks blockMap

// Store is the set of blocks hosted by one memory server.
type Store struct {
	high, low float64
	onSignal  Signal

	// shards is the block table, split by block ID into copy-on-write
	// maps: block resolution — the per-op lookup on the data plane — is
	// one atomic load and one map lookup with no lock, while Create and
	// Delete, which run as tasks write and free memory, clone only their
	// own shard under writeMu and publish the copy. Readers may briefly
	// see a block that was just deleted; that is indistinguishable from
	// the op racing ahead of the delete, which the epoch protocol
	// already handles. Once the delete is published the op finds
	// nothing: the controller never mints a block ID twice.
	shards  [blockShards]atomic.Pointer[blockMap]
	writeMu sync.Mutex
	// halted is set by Halt; a block created after it starts halted.
	halted atomic.Bool

	// heatNow is the current heat clock value (UnixNano), refreshed by
	// the tiering worker at each scan. The data path stamps block
	// last-access times from it with a single atomic load — no clock
	// syscall per op. Coarse (scan-period granularity) is fine: the
	// policy's windows are orders of magnitude longer.
	heatNow atomic.Int64

	// telemetry (nil until Instrument; the data path stays alloc-free
	// and lock-free either way).
	created *obs.Counter
	deleted *obs.Counter
}

// SetHeatNow refreshes the heat clock (UnixNano). Called by the
// tiering worker once per scan, and at block creation.
func (s *Store) SetHeatNow(nanos int64) { s.heatNow.Store(nanos) }

// HeatNow returns the current heat clock value.
func (s *Store) HeatNow() int64 { return s.heatNow.Load() }

// ResidentBytes sums the payload bytes of blocks currently resident in
// memory (tiered blocks count zero — their contents live in the
// persist tier).
func (s *Store) ResidentBytes() int64 {
	var total int64
	s.each(func(b *Block) {
		if b.TierState() != TierTiered {
			total += int64(b.Partition.Bytes())
		}
	})
	return total
}

// ApplyWaitMax returns the longest wait of a hop parked in
// ApplyInOrder on any block, 0 when none is parked.
func (s *Store) ApplyWaitMax() time.Duration {
	var worst time.Duration
	s.each(func(b *Block) {
		if age, _ := b.ApplyWait(); age > worst {
			worst = age
		}
	})
	return worst
}

// TieredBlocks counts blocks currently demoted to the persist tier.
func (s *Store) TieredBlocks() int {
	n := 0
	s.each(func(b *Block) {
		if b.TierState() == TierTiered {
			n++
		}
	})
	return n
}

// NewStore creates an empty store with the given thresholds. onSignal
// may be nil (signals dropped).
func NewStore(high, low float64, onSignal Signal) *Store {
	s := &Store{
		high:     high,
		low:      low,
		onSignal: onSignal,
	}
	for i := range s.shards {
		s.shards[i].Store(&noBlocks)
	}
	return s
}

// shard returns the copy-on-write pointer of the shard holding id.
func (s *Store) shard(id core.BlockID) *atomic.Pointer[blockMap] {
	return &s.shards[id%blockShards]
}

// each calls fn on every hosted block, one shard's published map at a
// time; a block created or deleted during the walk may or may not be
// seen.
func (s *Store) each(fn func(*Block)) {
	for i := range s.shards {
		for _, b := range *s.shards[i].Load() {
			fn(b)
		}
	}
}

// Create installs a partition in a new block.
func (s *Store) Create(b *Block) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	sh := s.shard(b.ID)
	old := *sh.Load()
	if _, exists := old[b.ID]; exists {
		return fmt.Errorf("blockstore: block %v: %w", b.ID, core.ErrExists)
	}
	next := make(blockMap, len(old)+1)
	for id, blk := range old {
		next[id] = blk
	}
	next[b.ID] = b
	sh.Store(&next)
	if s.halted.Load() {
		b.halt()
	}
	if s.created != nil && obs.On() {
		s.created.Inc()
	}
	return nil
}

// Delete removes a block. A file chunk's memory goes back to the pool
// (ds.File.Release), and an op that resolved the block before the
// delete then answers ErrStaleEpoch, as Get does after it, instead of
// being acknowledged on a detached partition. Release waits out the
// chunk's leased views, so it runs after the map is republished and
// the write mutex dropped. An append waiting on the block's growth is
// woken: no answer to its signal will find the block.
func (s *Store) Delete(id core.BlockID) error {
	b, err := s.detach(id)
	if err != nil {
		return err
	}
	if f, ok := b.Partition.(*ds.File); ok {
		f.Release()
	}
	b.EndGrowth()
	return nil
}

// detach republishes id's shard without id and returns its block.
func (s *Store) detach(id core.BlockID) (*Block, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	sh := s.shard(id)
	old := *sh.Load()
	b, exists := old[id]
	if !exists {
		return nil, fmt.Errorf("blockstore: block %v: %w", id, core.ErrNotFound)
	}
	next := make(blockMap, len(old))
	for bid, blk := range old {
		if bid != id {
			next[bid] = blk
		}
	}
	sh.Store(&next)
	if s.deleted != nil && obs.On() {
		s.deleted.Inc()
	}
	return b, nil
}

// Halt wakes every hop parked in a hosted block's ApplyInOrder, and
// fails every later one, with ErrClosed: the server is shutting down,
// and a hop waiting for a seq that never arrives must not hold it up.
func (s *Store) Halt() {
	s.halted.Store(true)
	s.each((*Block).halt)
}

// Get returns the block, or ErrStaleEpoch when unknown — an unknown
// block ID means the client is operating on reclaimed or moved state
// and must refresh its partition map. Lock-free.
func (s *Store) Get(id core.BlockID) (*Block, error) {
	if b, ok := (*s.shard(id).Load())[id]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("blockstore: block %v unknown: %w", id, core.ErrStaleEpoch)
}

// ApplyOn executes an op against an already-resolved block. checkNow
// controls whether repartition thresholds are re-evaluated inline after
// a mutation; batch execution passes false and calls CheckThresholds
// once per mutated block after the whole batch applies, so a 64-op
// batch costs one threshold evaluation instead of 64.
func (s *Store) ApplyOn(b *Block, op core.OpType, args [][]byte, checkNow bool) ([][]byte, error) {
	res, err := b.Partition.Apply(op, args)
	s.applied(b, op, checkNow)
	return res, err
}

// AppendOn is ApplyOn through the op's appending form
// (ds.AppendAnswer): its answer is encoded onto dst. handled=false
// means the partition has no such form for op and nothing ran.
func (s *Store) AppendOn(b *Block, dst []byte, op core.OpType, args [][]byte, checkNow bool) (out []byte, handled bool, err error) {
	if out, handled, err = ds.AppendAnswer(b.Partition, dst, op, args); handled {
		s.applied(b, op, checkNow)
	}
	return out, handled, err
}

// AppendRun is AppendOn's run form for a file chunk's appends
// (ds.File.AppendRun): recs land in order under one hold of the chunk
// lock, their offsets appended to offs, until one is refused, whose
// refusal err is; the thresholds are checked once for the run.
// handled=false means b holds no file chunk and nothing ran.
func (s *Store) AppendRun(b *Block, recs [][]byte, offs []int, checkNow bool) (out []int, handled bool, err error) {
	f, ok := b.Partition.(*ds.File)
	if !ok {
		return offs, false, nil
	}
	out, err = f.AppendRun(recs, offs)
	s.applied(b, core.OpFileAppend, checkNow)
	return out, true, err
}

// applied is what every apply form does after an op: re-evaluate the
// thresholds after a mutation, when checkNow.
func (s *Store) applied(b *Block, op core.OpType, checkNow bool) {
	if checkNow && op.IsMutation() {
		s.checkThresholds(b)
	}
}

// CheckThresholds re-evaluates a block against the repartition
// thresholds, emitting the overload/underload signal on a crossing.
// Deferred-check callers (ApplyOn with checkNow=false) must invoke it
// after their mutations land.
func (s *Store) CheckThresholds(b *Block) { s.checkThresholds(b) }

// checkThresholds emits at most one signal per threshold crossing: a
// block that stays past a threshold after its signal was answered
// (a full file chunk overwritten in place) does not signal again.
func (s *Store) checkThresholds(b *Block) {
	if s.onSignal == nil {
		return
	}
	usage := b.Partition.Bytes()
	capacity := b.Partition.Capacity()
	if capacity <= 0 {
		return
	}
	frac := float64(usage) / float64(capacity)
	if frac > s.low {
		b.armedUnder.Store(true)
	}
	switch {
	case frac >= s.high:
		if b.signaled.Load() != 1 && b.latchOver() {
			s.onSignal(b.Path, b.ID, true)
		}
	case frac <= s.low && b.armedUnder.Load():
		if drainedQueue(b) || b.Partition.Type() != core.DSQueue {
			if b.signaled.CompareAndSwap(0, -1) || b.signaled.CompareAndSwap(1, -1) {
				s.onSignal(b.Path, b.ID, false)
			}
		}
	default:
		b.signaled.Store(0)
	}
}

// drainedQueue reports whether b is a fully consumed, sealed queue
// segment — the only queue state eligible for reclamation.
func drainedQueue(b *Block) bool {
	q, ok := b.Partition.(*ds.Queue)
	return ok && q.Drained()
}

// ResetSignal clears the de-duplication state of a block whose signal
// was never answered — dropped on a full queue, or the controller call
// failed — re-arming it, and wakes what waits on its growth: nothing
// will come of that signal. An answered signal is not reset: the latch
// then clears by itself once usage leaves the threshold band (the
// default arm of checkThresholds).
func (s *Store) ResetSignal(id core.BlockID) {
	if b, err := s.Get(id); err == nil {
		b.signaled.Store(0)
		b.EndGrowth()
	}
}

// Instrument registers the store's metrics with a registry: lifetime
// block create/delete counters plus live gauges for block count, used
// and capacity bytes (utilization is their ratio). The gauges read
// store state only at scrape time, so the data path pays nothing for
// them. (The op count is the server's: views bypass the store.)
func (s *Store) Instrument(r *obs.Registry) {
	s.created = r.Counter("jiffy_store_blocks_created_total",
		"blocks installed into this store over its lifetime")
	s.deleted = r.Counter("jiffy_store_blocks_deleted_total",
		"blocks removed from this store over its lifetime")
	r.GaugeFunc("jiffy_store_blocks", "blocks currently hosted", func() int64 {
		var n int64
		s.each(func(*Block) { n++ })
		return n
	})
	r.GaugeFunc("jiffy_store_used_bytes", "bytes stored across hosted blocks", func() int64 {
		_, used := s.Stats()
		return int64(used)
	})
	r.GaugeFunc("jiffy_store_capacity_bytes", "capacity across hosted blocks", func() int64 {
		var capacity int64
		s.each(func(b *Block) { capacity += int64(b.Partition.Capacity()) })
		return capacity
	})
}

// List returns a snapshot of the hosted blocks.
func (s *Store) List() []*Block {
	var out []*Block
	s.each(func(b *Block) { out = append(out, b) })
	return out
}

// Stats summarizes the store. (The op count is the server's:
// ServerStats.Ops.)
func (s *Store) Stats() (blocks int, usedBytes int) {
	s.each(func(b *Block) {
		blocks++
		usedBytes += b.Partition.Bytes()
	})
	return blocks, usedBytes
}
