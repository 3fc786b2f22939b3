package controller_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"jiffy/internal/controller"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/obs"
	"jiffy/internal/proto"
	"jiffy/internal/server"
)

// TestRestoreStateRepairsAndDrains: a controller restored from a
// checkpoint is as capable as a promoted standby. It knows which nodes
// sit on which server (a drain migrates every chain-1 block, data
// intact), keeps tier records and tenant rate quotas, and carries the
// membership a standby bootstrapped from it needs to rebuild an
// allocator of its own.
func TestRestoreStateRepairsAndDrains(t *testing.T) {
	r := newRig(t, 2, 16, false)
	drained, kept := r.servers[0], r.servers[1]
	if err := r.ctrl.RegisterJob("j"); err != nil {
		t.Fatal(err)
	}
	quota := core.Quota{OpsPerSec: 100, BytesPerSec: 1 << 20, Weight: 2}
	if err := r.ctrl.SetQuota("j", quota); err != nil {
		t.Fatal(err)
	}
	created, err := r.ctrl.CreatePrefix(proto.CreatePrefixReq{Path: "j/kv", Type: core.DSKV, InitialBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	// One pair per shard, written straight into the hosting blockstore.
	stores := map[string]*server.Server{drained.Addr(): drained, kept.Addr(): kept}
	keys := make(map[core.BlockID]string)
	onDrained := 0
	for i := 0; len(keys) < len(created.Map.Blocks); i++ {
		key := fmt.Sprintf("k%d", i)
		e, _ := created.Map.BlockForSlot(ds.SlotOf(key, created.Map.NumSlots))
		if _, seen := keys[e.Info.ID]; seen {
			continue
		}
		if _, err := applyOp(stores[e.Info.Server].Store(), e.Info.ID, core.OpPut,
			[][]byte{[]byte(key), []byte("v-" + key)}); err != nil {
			t.Fatal(err)
		}
		keys[e.Info.ID] = key
		if e.Info.Server == drained.Addr() {
			onDrained++
		}
	}
	if onDrained == 0 {
		t.Fatal("precondition: no block placed on the server to drain")
	}
	if _, err := r.ctrl.ReportTier(proto.ReportTierReq{
		Server: "mem://elsewhere", Block: 9999, Path: "j/kv", Key: "tier/9999", Gen: 1, Demoted: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.SaveState("ckpt/full"); err != nil {
		t.Fatal(err)
	}

	newCtrl := func(name string) (*controller.Controller, string) {
		cfg := core.TestConfig()
		cfg.LeaseDuration = time.Minute
		c, err := controller.New(controller.Options{Config: cfg, Persist: r.store, DisableExpiry: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		addr, err := c.Listen(fmt.Sprintf("mem://ctrl-%s-%d", name, rigSeq))
		if err != nil {
			t.Fatal(err)
		}
		return c, addr
	}
	restored, restoredAddr := newCtrl("restored")
	if err := restored.RestoreState("ckpt/full"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	restored.Obs().WritePrometheus(&buf)
	if got := obs.ParsePrometheus(buf.Bytes())["jiffy_ctrl_blocks_tiered"]; got != 1 {
		t.Errorf("restored controller holds %v tier records, want 1", got)
	}

	// The tenant's rate quota replays to a server that joins the
	// restored controller.
	late, err := server.New(server.Options{
		Config: core.TestConfig(), ControllerAddrs: []string{restoredAddr}, Persist: r.store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if _, err := late.Listen(fmt.Sprintf("mem://srv-late-restore-%d", rigSeq)); err != nil {
		t.Fatal(err)
	}
	if err := late.Register(1); err != nil {
		t.Fatal(err)
	}
	if got := late.Gate().Quota("j"); got != quota {
		t.Errorf("late server gate quota = %+v, want %+v", got, quota)
	}

	migrated, err := restored.DrainServer(drained.Addr())
	if err != nil {
		t.Fatalf("drain on the restored controller: %v", err)
	}
	if migrated != onDrained {
		t.Fatalf("drain migrated %d entries, want %d", migrated, onDrained)
	}
	stores[late.Addr()] = late
	open, err := restored.Open("j/kv")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		e, ok := open.Map.BlockForSlot(ds.SlotOf(key, open.Map.NumSlots))
		if !ok || e.Lost || e.Info.Server == drained.Addr() {
			t.Fatalf("key %q after drain: entry %+v", key, e)
		}
		v, err := applyOp(stores[e.Info.Server].Store(), e.Info.ID, core.OpGet, [][]byte{[]byte(key)})
		if err != nil || string(v[0]) != "v-"+key {
			t.Errorf("read %q after drain = %q, %v", key, v, err)
		}
	}

	// A standby bootstrapped from the restored leader mirrors it and,
	// once promoted, allocates from the same servers.
	standby, standbyAddr := newCtrl("standby")
	group := []string{restoredAddr, standbyAddr}
	standby.ConfigureGroup(group, 1, 0)
	restored.ConfigureGroup(group, 0, 0)
	want := restored.Stats()
	restored.Close()
	standby.PromoteNow()
	if got := standby.Stats(); got.Servers != want.Servers || got.FreeBlocks != want.FreeBlocks ||
		got.Jobs != want.Jobs || got.Prefixes != want.Prefixes {
		t.Errorf("promoted standby stats = %+v, restored leader had %+v", got, want)
	}
}
