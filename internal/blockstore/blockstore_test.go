package blockstore

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"

	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/wire"
)

type signalRecorder struct {
	mu      sync.Mutex
	signals []struct {
		block core.BlockID
		over  bool
	}
}

func (r *signalRecorder) fn(path core.Path, block core.BlockID, over bool) {
	r.mu.Lock()
	r.signals = append(r.signals, struct {
		block core.BlockID
		over  bool
	}{block, over})
	r.mu.Unlock()
}

func (r *signalRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.signals)
}

func (r *signalRecorder) last() (core.BlockID, bool, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.signals) == 0 {
		return 0, false, false
	}
	s := r.signals[len(r.signals)-1]
	return s.block, s.over, true
}

func newKVBlock(id core.BlockID, capacity int) *Block {
	return &Block{
		ID:        id,
		Path:      core.MustPath("job", "T1"),
		Partition: ds.NewKV(capacity, 64, []ds.SlotRange{{Lo: 0, Hi: 63}}),
	}
}

func TestCreateGetDelete(t *testing.T) {
	s := NewStore(0.95, 0.05, nil)
	b := newKVBlock(1, 1024)
	if err := s.Create(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(b); !errors.Is(err, core.ErrExists) {
		t.Errorf("duplicate create = %v", err)
	}
	got, err := s.Get(1)
	if err != nil || got.ID != 1 {
		t.Errorf("Get = %v, %v", got, err)
	}
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(1); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("double delete = %v", err)
	}
	if _, err := s.Get(1); !errors.Is(err, core.ErrStaleEpoch) {
		t.Errorf("Get missing = %v, want ErrStaleEpoch", err)
	}
}

func TestApplyRoutesToPartition(t *testing.T) {
	s := NewStore(0.95, 0.05, nil)
	b := newKVBlock(1, 1024)
	s.Create(b)
	if _, err := s.ApplyOn(b, core.OpPut, [][]byte{[]byte("k"), []byte("v")}, true); err != nil {
		t.Fatal(err)
	}
	res, err := s.ApplyOn(b, core.OpGet, [][]byte{[]byte("k")}, true)
	if err != nil || string(res[0]) != "v" {
		t.Errorf("get = %v, %v", res, err)
	}
}

func TestOverloadSignalOnce(t *testing.T) {
	rec := &signalRecorder{}
	s := NewStore(0.5, 0.05, rec.fn)
	b := newKVBlock(1, 100)
	s.Create(b)
	// Push usage past 50%: key "a"(1) + 60-byte value = 61 bytes.
	if _, err := s.ApplyOn(b, core.OpPut, [][]byte{[]byte("a"), make([]byte, 60)}, true); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 1 {
		t.Fatalf("signals = %d, want 1", rec.count())
	}
	if id, over, _ := rec.last(); id != 1 || !over {
		t.Errorf("signal = block %v over=%v", id, over)
	}
	// Further mutations above threshold do not re-signal.
	s.ApplyOn(b, core.OpPut, [][]byte{[]byte("a"), make([]byte, 61)}, true)
	if rec.count() != 1 {
		t.Errorf("re-signaled: %d", rec.count())
	}
}

func TestUnderloadSignalRequiresArming(t *testing.T) {
	rec := &signalRecorder{}
	s := NewStore(0.9, 0.2, rec.fn)
	b := newKVBlock(1, 100)
	s.Create(b)
	// A small write below the low threshold on a fresh block: no signal.
	s.ApplyOn(b, core.OpPut, [][]byte{[]byte("a"), make([]byte, 5)}, true)
	if rec.count() != 0 {
		t.Fatalf("fresh block signaled underload: %d", rec.count())
	}
	// Go above low (arming), then drop back below: underload fires once.
	s.ApplyOn(b, core.OpPut, [][]byte{[]byte("b"), make([]byte, 40)}, true)
	s.ApplyOn(b, core.OpDelete, [][]byte{[]byte("b")}, true)
	if rec.count() != 1 {
		t.Fatalf("signals = %d, want 1", rec.count())
	}
	if _, over, _ := rec.last(); over {
		t.Error("expected underload signal")
	}
}

func TestQueueUnderloadOnlyWhenDrained(t *testing.T) {
	rec := &signalRecorder{}
	s := NewStore(0.9, 0.3, rec.fn)
	q := ds.NewQueue(100)
	b := &Block{ID: 2, Path: core.MustPath("j", "T"), Partition: q}
	s.Create(b)
	s.ApplyOn(b, core.OpEnqueue, [][]byte{make([]byte, 40)}, true) // arm
	s.ApplyOn(b, core.OpDequeue, nil, true)                        // below low, but not sealed
	if rec.count() != 0 {
		t.Fatalf("unsealed queue signaled underload")
	}
	q.SetNext(core.BlockInfo{ID: 3, Server: "s"})
	s.ApplyOn(b, core.OpEnqueue, [][]byte{[]byte("x")}, true) // redirect error, still evaluates
	if rec.count() != 1 {
		t.Errorf("drained queue signals = %d, want 1", rec.count())
	}
}

func TestResetSignalRearms(t *testing.T) {
	rec := &signalRecorder{}
	s := NewStore(0.5, 0.05, rec.fn)
	b := newKVBlock(1, 100)
	s.Create(b)
	s.ApplyOn(b, core.OpPut, [][]byte{[]byte("a"), make([]byte, 60)}, true)
	if rec.count() != 1 {
		t.Fatal("no initial signal")
	}
	s.ResetSignal(1)
	s.ApplyOn(b, core.OpPut, [][]byte{[]byte("a"), make([]byte, 70)}, true)
	if rec.count() != 2 {
		t.Errorf("signals after reset = %d, want 2", rec.count())
	}
}

// TestGrowthOpenWhileSignalInFlight: an over-signal opens the block's
// growth channel; whatever ends the signal — an answer (EndGrowth), a
// drop or failure (ResetSignal), the block's delete — closes it, and
// with no signal in flight there is nothing to wait on.
func TestGrowthOpenWhileSignalInFlight(t *testing.T) {
	rec := &signalRecorder{}
	s := NewStore(0.5, 0.05, rec.fn)
	b := newKVBlock(1, 100)
	s.Create(b)
	if b.Growth() != nil {
		t.Fatal("growth open before any signal")
	}
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	for _, end := range []struct {
		name string
		fn   func()
	}{
		{"answered", b.EndGrowth},
		{"dropped", func() { s.ResetSignal(1) }},
		{"deleted", func() { s.Delete(1) }},
	} {
		s.ResetSignal(1)
		s.ApplyOn(b, core.OpPut, [][]byte{[]byte("a"), make([]byte, 60)}, true)
		growth := b.Growth()
		if growth == nil || closed(growth) {
			t.Fatalf("%s: no growth in flight after the over-signal", end.name)
		}
		end.fn()
		if !closed(growth) || b.Growth() != nil {
			t.Errorf("%s: growth still in flight", end.name)
		}
	}
}

func TestReadsDoNotSignal(t *testing.T) {
	rec := &signalRecorder{}
	s := NewStore(0.5, 0.05, rec.fn)
	b := newKVBlock(1, 100)
	s.Create(b)
	// Preload above threshold directly through the partition (bypassing
	// the store, as a restore would).
	b.Partition.(*ds.KV).Put("a", make([]byte, 60))
	s.ApplyOn(b, core.OpGet, [][]byte{[]byte("a")}, true)
	if rec.count() != 0 {
		t.Errorf("read triggered %d signals", rec.count())
	}
}

func TestListAndStats(t *testing.T) {
	s := NewStore(0.95, 0.05, nil)
	b := newKVBlock(1, 1024)
	s.Create(b)
	s.Create(newKVBlock(2, 1024))
	s.ApplyOn(b, core.OpPut, [][]byte{[]byte("k"), []byte("0123456789")}, true)
	if got := len(s.List()); got != 2 {
		t.Errorf("List = %d blocks", got)
	}
	blocks, used := s.Stats()
	if blocks != 2 || used != 11 {
		t.Errorf("stats = %d blocks, %d bytes", blocks, used)
	}
}

func TestConcurrentApply(t *testing.T) {
	s := NewStore(0.95, 0.05, nil)
	b := newKVBlock(1, core.MB)
	s.Create(b)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := []byte{byte('a' + g), byte(i), byte(i >> 8)}
				if _, err := s.ApplyOn(b, core.OpPut, [][]byte{key, []byte("v")}, true); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := b.Partition.(*ds.KV).Len(); n != 4000 {
		t.Errorf("%d pairs stored, want 4000", n)
	}
}

// TestDeleteWaitsOutLeasedView deletes a file block while a leased view
// of its bytes is in flight (a read response not yet written). Delete
// releases the chunk's buffer to the pool, so it must wait for the
// lease: the view reads its bytes intact until its Release, even with a
// new chunk waiting to reuse the buffer. A delete that did not wait
// lets the new chunk clear the buffer under the view.
func TestDeleteWaitsOutLeasedView(t *testing.T) {
	const size = 64 * core.KB
	s := NewStore(0.95, 0.05, nil)
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i)
	}
	b := &Block{ID: 1, Path: "j/f", Partition: ds.NewFile(size)}
	if err := s.Create(b); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyOn(b, core.OpFileWrite, [][]byte{ds.U64(0), want}, true); err != nil {
		t.Fatal(err)
	}
	v, _, err := ds.ApplyView(b.Partition, core.OpFileRead, [][]byte{ds.U64(0), ds.U64(size)}, nil)
	if err != nil || v.Lease == nil {
		t.Fatalf("view: %v, leased %v", err, v.Lease != nil)
	}

	deleted := make(chan struct{})
	go func() {
		defer close(deleted)
		if err := s.Delete(1); err != nil {
			t.Error(err)
		}
		// A new chunk grows into the released buffer and overwrites it.
		next := ds.NewFile(size)
		if _, err := next.WriteAt(0, make([]byte, size)); err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < 100; i++ {
		if !bytes.Equal(v.Vals[0], want) {
			t.Fatalf("read %d: the view's bytes changed under its lease", i)
		}
		select {
		case <-deleted:
			t.Fatal("Delete returned while a leased view was in flight")
		default:
		}
		runtime.Gosched()
	}
	v.Lease.Release()
	<-deleted
	if _, err := b.Partition.Apply(core.OpFileRead, [][]byte{ds.U64(0), ds.U64(1)}); !errors.Is(err, core.ErrStaleEpoch) {
		t.Fatalf("read after delete: %v, want ErrStaleEpoch", err)
	}
}

// TestApplyInOrderAllocs: an in-order apply takes no wait stamp and
// allocates nothing; only a hop that parks stamps the block.
func TestApplyInOrderAllocs(t *testing.T) {
	s := NewStore(0.95, 0.05, nil)
	b := newKVBlock(1, 1024)
	s.Create(b)
	b.SetChain(core.ReplicaChain{{ID: 1, Server: "a"}, {ID: 1, Server: "b"}}, 1)
	var seq uint64
	apply := func() {
		if _, err := b.ApplyInOrder(seq, 1, func() error { return nil }); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	apply() // the first apply builds the block's condition variable
	if allocs := testing.AllocsPerRun(1000, apply); allocs != 0 {
		t.Errorf("an in-order apply allocates %.1f objects, want 0", allocs)
	}
	if age, _ := b.ApplyWait(); age != 0 || s.ApplyWaitMax() != 0 {
		t.Errorf("in-order applies left a wait stamp: %v", age)
	}
}

// churnBytes is the mean heap bytes one Create and Delete pair takes in
// a store already hosting hosted blocks.
func churnBytes(t *testing.T, hosted int) float64 {
	t.Helper()
	s := NewStore(0.95, 0.05, nil)
	for id := 1; id <= hosted; id++ {
		if err := s.Create(newKVBlock(core.BlockID(id), 1024)); err != nil {
			t.Fatal(err)
		}
	}
	const pairs = 256
	churned := make([]*Block, pairs)
	for i := range churned {
		churned[i] = newKVBlock(core.BlockID(hosted+1+i), 1024)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range churned {
		if err := s.Create(b); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(b.ID); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / pairs
}

// TestStoreChurnAllocBytes: a block's create and delete copy only its
// own shard of the block table, so a pair costs about the same in a
// store of 2 048 blocks as in one of 16: 400 B against 256 B. With one
// table for the whole store, a pair at 2 048 blocks copied every entry
// twice, 148 KB against 1.3 KB at 16.
func TestStoreChurnAllocBytes(t *testing.T) {
	if wire.Checked {
		t.Skip("allocation gates skip in an instrumented build")
	}
	small, large := churnBytes(t, 16), churnBytes(t, 2048)
	t.Logf("create+delete: %.0f B at 16 blocks, %.0f B at 2048", small, large)
	if large > 2*small {
		t.Errorf("create+delete takes %.0f B at 2048 blocks, %.0f B at 16: want within 2x", large, small)
	}
}

// TestConcurrentCreateDelete churns blocks from several goroutines
// while others resolve and walk them: every block a creator published
// resolves until its delete, and the walks see only hosted blocks.
func TestConcurrentCreateDelete(t *testing.T) {
	s := NewStore(0.95, 0.05, nil)
	const creators, perCreator = 4, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Stats()
				s.List()
				s.ApplyWaitMax()
			}
		}()
	}
	var churners sync.WaitGroup
	for c := 0; c < creators; c++ {
		churners.Add(1)
		go func(c int) {
			defer churners.Done()
			for i := 0; i < perCreator; i++ {
				id := core.BlockID(1 + c*perCreator + i)
				if err := s.Create(newKVBlock(id, 1024)); err != nil {
					t.Error(err)
					return
				}
				if got, err := s.Get(id); err != nil || got.ID != id {
					t.Errorf("Get(%v) after create = %v, %v", id, got, err)
					return
				}
				if i%2 == 0 {
					if err := s.Delete(id); err != nil {
						t.Error(err)
						return
					}
					if _, err := s.Get(id); !errors.Is(err, core.ErrStaleEpoch) {
						t.Errorf("Get(%v) after delete = %v, want ErrStaleEpoch", id, err)
						return
					}
				}
			}
		}(c)
	}
	churners.Wait()
	close(stop)
	wg.Wait()
	if blocks, _ := s.Stats(); blocks != creators*perCreator/2 || len(s.List()) != blocks {
		t.Errorf("after churn: Stats = %d blocks, List = %d, want %d", blocks, len(s.List()), creators*perCreator/2)
	}
}
