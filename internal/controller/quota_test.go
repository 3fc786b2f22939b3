package controller_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/proto"
	"jiffy/internal/server"
)

func TestSetQuotaValidation(t *testing.T) {
	r := newRig(t, 1, 8, false)
	if err := r.ctrl.SetQuota("nosuchjob/t", core.Quota{OpsPerSec: 1}); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("quota on unknown job: err = %v, want ErrNotFound", err)
	}
	if err := r.ctrl.RegisterJob("j"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []core.Quota{
		{OpsPerSec: -1},
		{BytesPerSec: -5},
		{MemoryBytes: -1},
	} {
		if err := r.ctrl.SetQuota("j", q); err == nil {
			t.Errorf("negative quota %+v accepted", q)
		}
	}
}

// TestMemoryQuotaBoundsAllocation: the MemoryBytes dimension caps the
// physical blocks a subtree may hold, refusing both initial
// provisioning and scale-up past the budget with ErrQuotaExceeded.
func TestMemoryQuotaBoundsAllocation(t *testing.T) {
	r := newRig(t, 1, 16, false)
	cfg := core.TestConfig()
	if err := r.ctrl.RegisterJob("j"); err != nil {
		t.Fatal(err)
	}
	// Budget: exactly two blocks for the whole job.
	if err := r.ctrl.SetQuota("j", core.Quota{MemoryBytes: int64(2 * cfg.BlockSize)}); err != nil {
		t.Fatal(err)
	}
	// Three initial blocks exceed the budget outright.
	_, err := r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/big", Type: core.DSKV, InitialBlocks: 3})
	if !errors.Is(err, core.ErrQuotaExceeded) {
		t.Fatalf("3-block provision under 2-block quota: err = %v, want ErrQuotaExceeded", err)
	}
	// Two blocks fit.
	resp, err := r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/t", Type: core.DSKV, InitialBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The budget is now exhausted: growing the KV must be refused.
	_, err = r.ctrl.ScaleUp(proto.ScaleUpReq{Path: "j/t", Block: resp.Map.Blocks[0].Info.ID})
	if !errors.Is(err, core.ErrQuotaExceeded) {
		t.Fatalf("scale-up past quota: err = %v, want ErrQuotaExceeded", err)
	}
	// And so must any sibling allocation under the same job root.
	_, err = r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/u", Type: core.DSKV, InitialBlocks: 1})
	if !errors.Is(err, core.ErrQuotaExceeded) {
		t.Fatalf("sibling provision past quota: err = %v, want ErrQuotaExceeded", err)
	}
	// Raising the budget unblocks the exact same request.
	if err := r.ctrl.SetQuota("j", core.Quota{MemoryBytes: int64(8 * cfg.BlockSize)}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/u", Type: core.DSKV, InitialBlocks: 1}); err != nil {
		t.Fatalf("provision after raising quota: %v", err)
	}
}

// TestMemoryQuotaScopedToSubtree: a quota on an interior node binds
// its own subtree only; siblings allocate freely.
func TestMemoryQuotaScopedToSubtree(t *testing.T) {
	r := newRig(t, 1, 16, false)
	cfg := core.TestConfig()
	if err := r.ctrl.RegisterJob("j"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/stage0", Type: core.DSNone}); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.SetQuota("j/stage0", core.Quota{MemoryBytes: int64(cfg.BlockSize)}); err != nil {
		t.Fatal(err)
	}
	_, err := r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/stage0/shuffle", Type: core.DSKV, InitialBlocks: 2})
	if !errors.Is(err, core.ErrQuotaExceeded) {
		t.Fatalf("in-subtree provision past quota: err = %v, want ErrQuotaExceeded", err)
	}
	if _, err := r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/stage1", Type: core.DSKV, InitialBlocks: 4}); err != nil {
		t.Fatalf("sibling outside the quota subtree refused: %v", err)
	}
}

// TestTenantQuotaBroadcast: rate dimensions registered on a job root
// reach every memory server's gate — including servers that join
// later — and clear on job deregistration.
func TestTenantQuotaBroadcast(t *testing.T) {
	r := newRig(t, 2, 8, false)
	if err := r.ctrl.RegisterJob("j"); err != nil {
		t.Fatal(err)
	}
	q := core.Quota{OpsPerSec: 100, BytesPerSec: 1 << 20, Weight: 2}
	if err := r.ctrl.SetQuota("j", q); err != nil {
		t.Fatal(err)
	}
	for i, srv := range r.servers {
		if got := srv.Gate().Quota("j"); got != q {
			t.Fatalf("server %d gate quota = %+v, want %+v", i, got, q)
		}
		if !srv.Gate().Active() {
			t.Fatalf("server %d gate inactive after quota broadcast", i)
		}
	}

	// A server that registers after the quota was set must receive the
	// replayed table.
	late, err := server.New(server.Options{
		Config:          core.TestConfig(),
		ControllerAddrs: []string{r.ctrlAddr},
		Persist:         r.store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if _, err := late.Listen(fmt.Sprintf("mem://srv-late-%d", rigSeq)); err != nil {
		t.Fatal(err)
	}
	if err := late.Register(8); err != nil {
		t.Fatal(err)
	}
	if got := late.Gate().Quota("j"); got != q {
		t.Fatalf("late server gate quota = %+v, want %+v", got, q)
	}

	// Deregistration withdraws the tenant everywhere.
	if err := r.ctrl.DeregisterJob("j"); err != nil {
		t.Fatal(err)
	}
	for i, srv := range append(r.servers, late) {
		if got := srv.Gate().Quota("j"); !got.IsZero() {
			t.Fatalf("server %d still holds quota %+v after deregister", i, got)
		}
	}
}

// TestLeaseExpiryReleasesQuota: when a prefix's lease lapses and the
// controller reclaims it, its quota registration is surrendered with
// the blocks — allocations that the quota refused before expiry
// succeed afterwards. Covers both data-bearing and bare interior
// nodes (which have no blocks to flush but still hold a quota).
func TestLeaseExpiryReleasesQuota(t *testing.T) {
	r := newRig(t, 1, 16, true)
	cfg := core.TestConfig()
	if err := r.ctrl.RegisterJob("j"); err != nil {
		t.Fatal(err)
	}
	// Data-bearing prefix: one block allocated, budget of two.
	if _, err := r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/a", Type: core.DSKV, InitialBlocks: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.SetQuota("j/a", core.Quota{MemoryBytes: int64(2 * cfg.BlockSize)}); err != nil {
		t.Fatal(err)
	}
	// Bare interior node with a one-block budget.
	if _, err := r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/c", Type: core.DSNone}); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.SetQuota("j/c", core.Quota{MemoryBytes: int64(cfg.BlockSize)}); err != nil {
		t.Fatal(err)
	}

	_, err := r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/a/b", Type: core.DSKV, InitialBlocks: 2})
	if !errors.Is(err, core.ErrQuotaExceeded) {
		t.Fatalf("pre-expiry provision under j/a: err = %v, want ErrQuotaExceeded", err)
	}
	_, err = r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/c/d", Type: core.DSKV, InitialBlocks: 2})
	if !errors.Is(err, core.ErrQuotaExceeded) {
		t.Fatalf("pre-expiry provision under j/c: err = %v, want ErrQuotaExceeded", err)
	}

	// Let every lease in the job lapse and reclaim.
	r.vclock.Advance(2 * time.Minute)
	if n := r.ctrl.ExpireNow(); n == 0 {
		t.Fatal("nothing reclaimed after leases lapsed")
	}

	// The reclaimed prefixes' quotas are gone: the same allocations now
	// pass (the new children get fresh leases).
	if _, err := r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/a/b", Type: core.DSKV, InitialBlocks: 2}); err != nil {
		t.Fatalf("post-expiry provision under j/a: %v", err)
	}
	if _, err := r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/c/d", Type: core.DSKV, InitialBlocks: 2}); err != nil {
		t.Fatalf("post-expiry provision under j/c: %v", err)
	}
}
