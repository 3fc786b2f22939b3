package blockstore

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"

	"jiffy/internal/core"
	"jiffy/internal/ds"
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
	s.Create(newKVBlock(1, 1024))
	if _, err := s.Apply(1, core.OpPut, [][]byte{[]byte("k"), []byte("v")}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Apply(1, core.OpGet, [][]byte{[]byte("k")})
	if err != nil || string(res[0]) != "v" {
		t.Errorf("get = %v, %v", res, err)
	}
	if _, err := s.Apply(99, core.OpGet, [][]byte{[]byte("k")}); !errors.Is(err, core.ErrStaleEpoch) {
		t.Errorf("unknown block = %v", err)
	}
}

func TestOverloadSignalOnce(t *testing.T) {
	rec := &signalRecorder{}
	s := NewStore(0.5, 0.05, rec.fn)
	s.Create(newKVBlock(1, 100))
	// Push usage past 50%: key "a"(1) + 60-byte value = 61 bytes.
	if _, err := s.Apply(1, core.OpPut, [][]byte{[]byte("a"), make([]byte, 60)}); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 1 {
		t.Fatalf("signals = %d, want 1", rec.count())
	}
	if id, over, _ := rec.last(); id != 1 || !over {
		t.Errorf("signal = block %v over=%v", id, over)
	}
	// Further mutations above threshold do not re-signal.
	s.Apply(1, core.OpPut, [][]byte{[]byte("a"), make([]byte, 61)})
	if rec.count() != 1 {
		t.Errorf("re-signaled: %d", rec.count())
	}
}

func TestUnderloadSignalRequiresArming(t *testing.T) {
	rec := &signalRecorder{}
	s := NewStore(0.9, 0.2, rec.fn)
	s.Create(newKVBlock(1, 100))
	// A small write below the low threshold on a fresh block: no signal.
	s.Apply(1, core.OpPut, [][]byte{[]byte("a"), make([]byte, 5)})
	if rec.count() != 0 {
		t.Fatalf("fresh block signaled underload: %d", rec.count())
	}
	// Go above low (arming), then drop back below: underload fires once.
	s.Apply(1, core.OpPut, [][]byte{[]byte("b"), make([]byte, 40)})
	s.Apply(1, core.OpDelete, [][]byte{[]byte("b")})
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
	s.Create(&Block{ID: 2, Path: core.MustPath("j", "T"), Partition: q})
	s.Apply(2, core.OpEnqueue, [][]byte{make([]byte, 40)}) // arm
	s.Apply(2, core.OpDequeue, nil)                        // below low, but not sealed
	if rec.count() != 0 {
		t.Fatalf("unsealed queue signaled underload")
	}
	q.SetNext(core.BlockInfo{ID: 3, Server: "s"})
	s.Apply(2, core.OpEnqueue, [][]byte{[]byte("x")}) // redirect error, still evaluates
	if rec.count() != 1 {
		t.Errorf("drained queue signals = %d, want 1", rec.count())
	}
}

func TestResetSignalRearms(t *testing.T) {
	rec := &signalRecorder{}
	s := NewStore(0.5, 0.05, rec.fn)
	s.Create(newKVBlock(1, 100))
	s.Apply(1, core.OpPut, [][]byte{[]byte("a"), make([]byte, 60)})
	if rec.count() != 1 {
		t.Fatal("no initial signal")
	}
	s.ResetSignal(1)
	s.Apply(1, core.OpPut, [][]byte{[]byte("a"), make([]byte, 70)})
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
		s.Apply(1, core.OpPut, [][]byte{[]byte("a"), make([]byte, 60)})
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
	// Apply, as a restore would).
	b.Partition.(*ds.KV).Put("a", make([]byte, 60))
	s.Apply(1, core.OpGet, [][]byte{[]byte("a")})
	if rec.count() != 0 {
		t.Errorf("read triggered %d signals", rec.count())
	}
}

func TestListAndStats(t *testing.T) {
	s := NewStore(0.95, 0.05, nil)
	s.Create(newKVBlock(1, 1024))
	s.Create(newKVBlock(2, 1024))
	s.Apply(1, core.OpPut, [][]byte{[]byte("k"), []byte("0123456789")})
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
	s.Create(newKVBlock(1, core.MB))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := []byte{byte('a' + g), byte(i), byte(i >> 8)}
				if _, err := s.Apply(1, core.OpPut, [][]byte{key, []byte("v")}); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	b, _ := s.Get(1)
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
	if err := s.Create(&Block{ID: 1, Path: "j/f", Partition: ds.NewFile(size)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(1, core.OpFileWrite, [][]byte{ds.U64(0), want}); err != nil {
		t.Fatal(err)
	}
	b, _ := s.Get(1)
	v, _, err := ds.ApplyView(b.Partition, core.OpFileRead, [][]byte{ds.U64(0), ds.U64(size)}, nil)
	if err != nil || v.Release == nil {
		t.Fatalf("view: %v, leased %v", err, v.Release != nil)
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
	v.Release()
	<-deleted
	if _, err := b.Partition.Apply(core.OpFileRead, [][]byte{ds.U64(0), ds.U64(1)}); !errors.Is(err, core.ErrStaleEpoch) {
		t.Fatalf("read after delete: %v, want ErrStaleEpoch", err)
	}
}
