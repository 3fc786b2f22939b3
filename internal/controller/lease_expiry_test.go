package controller_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"jiffy/internal/clock"
	"jiffy/internal/controller"
	"jiffy/internal/core"
	"jiffy/internal/persist"
	"jiffy/internal/proto"
	"jiffy/internal/server"
)

// recordingStore logs every persisted key in order and fires an
// optional hook on each Put, so tests can observe cluster state at the
// exact moment a flush lands.
type recordingStore struct {
	persist.Store
	mu    sync.Mutex
	keys  []string
	onPut func(key string)
}

func (r *recordingStore) Put(key string, data []byte) error {
	r.mu.Lock()
	r.keys = append(r.keys, key)
	hook := r.onPut
	r.mu.Unlock()
	if hook != nil {
		hook(key)
	}
	return r.Store.Put(key, data)
}

func (r *recordingStore) setOnPut(f func(string)) {
	r.mu.Lock()
	r.onPut = f
	r.mu.Unlock()
}

func (r *recordingStore) logged() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.keys...)
}

// TestExpiryFlushesBeforeReclaim drives a lease to expiry on the
// virtual clock and proves the §3.2 ordering: the expired prefix's
// blocks are flushed to the persistent tier strictly BEFORE they are
// reclaimed. Observed three ways: (1) when the flush manifest is
// written the block still serves reads, (2) the persist log shows the
// block snapshot preceding its manifest, (3) the data survives the
// round trip — reclaimed blocks reload through Open.
func TestExpiryFlushesBeforeReclaim(t *testing.T) {
	rs := &recordingStore{Store: persist.NewMemStore()}
	vclock := clock.NewVirtual(time.Unix(0, 0))
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	ctrl, err := controller.New(controller.Options{
		Config: cfg, Persist: rs, Clock: vclock, DisableExpiry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	addr, err := ctrl.Listen("mem://fbr-ctrl")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{
		Config: cfg, ControllerAddrs: []string{addr}, Persist: rs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Listen("mem://fbr-srv"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(8); err != nil {
		t.Fatal(err)
	}

	if err := ctrl.RegisterJob("j"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.CreatePrefix(proto.CreatePrefixReq{
		Path: "j/t", Type: core.DSKV, LeaseDuration: 10 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	open, err := ctrl.Open("j/t")
	if err != nil {
		t.Fatal(err)
	}
	blockID := open.Map.Blocks[0].Info.ID
	if _, err := applyOp(srv.Store(), blockID, core.OpPut,
		[][]byte{[]byte("k"), []byte("acked-write")}); err != nil {
		t.Fatal(err)
	}
	allocatedBefore := ctrl.Stats().AllocatedBlocks

	// The manifest is the last write of a flush: at that instant the
	// flush is complete but reclamation has not yet run, so the block
	// must still be live on its server.
	liveAtFlush := make(chan error, 1)
	rs.setOnPut(func(key string) {
		if key == "jiffy-flush/j/t/manifest" {
			_, err := applyOp(srv.Store(), blockID, core.OpGet, [][]byte{[]byte("k")})
			select {
			case liveAtFlush <- err:
			default:
			}
		}
	})

	// Nothing expires before the lease lapses...
	vclock.Advance(5 * time.Second)
	if n := ctrl.ExpireNow(); n != 0 {
		t.Fatalf("reclaimed %d prefixes with a live lease", n)
	}
	// ...and one scan past the lease reclaims exactly this prefix.
	vclock.Advance(6 * time.Second)
	if n := ctrl.ExpireNow(); n != 1 {
		t.Fatalf("expiry scan reclaimed %d prefixes, want 1", n)
	}

	select {
	case err := <-liveAtFlush:
		if err != nil {
			t.Errorf("block already reclaimed when the flush manifest was written: %v", err)
		}
	default:
		t.Fatal("expiry never wrote a flush manifest")
	}

	// The persist log shows the snapshot strictly before its manifest.
	keys := rs.logged()
	blockAt, manifestAt := -1, -1
	for i, k := range keys {
		switch {
		case strings.HasPrefix(k, "jiffy-flush/j/t/block-"):
			if blockAt < 0 {
				blockAt = i
			}
		case k == "jiffy-flush/j/t/manifest":
			manifestAt = i
		}
	}
	if blockAt < 0 || manifestAt < 0 || blockAt >= manifestAt {
		t.Errorf("flush write order wrong: block snapshot at %d, manifest at %d (log %v)",
			blockAt, manifestAt, keys)
	}

	// Reclamation did happen — after the flush.
	if got := ctrl.Stats().AllocatedBlocks; got >= allocatedBefore {
		t.Errorf("blocks not reclaimed: allocated %d -> %d", allocatedBefore, got)
	}

	// And no acked write was lost: Open reloads the flushed prefix.
	reopened, err := ctrl.Open("j/t")
	if err != nil {
		t.Fatal(err)
	}
	vals, err := applyOp(srv.Store(), reopened.Map.Blocks[0].Info.ID, core.OpGet,
		[][]byte{[]byte("k")})
	if err != nil {
		t.Fatalf("acked write lost across lease expiry: %v", err)
	}
	if len(vals) == 0 || string(vals[0]) != "acked-write" {
		t.Errorf("reloaded value = %q, want %q", vals, "acked-write")
	}
}
