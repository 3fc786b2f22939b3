package controller

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"jiffy/internal/clock"
	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/hierarchy"
	"jiffy/internal/persist"
	"jiffy/internal/proto"
)

// TestRetiredRenewEntryIgnored: an op-log entry of the retired RenewLease
// kind, as a leader from before renewals left the log still streams it,
// changes nothing on the member that applies it.
func TestRetiredRenewEntryIgnored(t *testing.T) {
	vclock := clock.NewVirtual(time.Unix(0, 0))
	c, err := New(Options{Config: core.TestConfig(), Persist: persist.NewMemStore(), Clock: vclock, DisableExpiry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterJob("j"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreatePrefix(proto.CreatePrefixReq{Path: "j/a"}); err != nil {
		t.Fatal(err)
	}
	created := vclock.Now()
	vclock.Advance(time.Minute)
	if err := c.apply(replOp{Kind: opRemoveNode + 1, Paths: []core.Path{"j/a"}, Now: vclock.Now()}); err != nil {
		t.Fatal(err)
	}
	if info, err := c.LeaseInfo("j/a"); err != nil || !info.LastRenewed.Equal(created) {
		t.Fatalf("after a retired renewal entry: renewed at %v (%v), want %v", info.LastRenewed, err, created)
	}
}

// TestGroupApplyEquality drives one scripted sequence through every
// replicated op kind and, after every call, holds four members to the
// same state image: the leader, a standby streamed from the start, a
// standby re-bootstrapped mid-sequence and then streamed, and a
// controller restored from the leader's SaveState. The lease timestamps
// are left out (metadataOf): a renewal is leader-local, and a restore
// grants every lease a fresh term.
func TestGroupApplyEquality(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour
	cfg.ChainLength = 2
	r := newRebuildRig(t, cfg, 2)
	for i := 0; i < 4; i++ {
		r.addServer(16)
	}
	l := r.leader
	probated, drained := r.servers[0].Addr(), r.servers[1].Addr()
	var tiered core.BlockInfo

	steps := []struct {
		name string
		do   func() error
	}{
		{"register job", func() error { return l.RegisterJob("j") }},
		{"create prefixes", func() error {
			for _, p := range []struct {
				path   core.Path
				t      core.DSType
				blocks int
			}{{"j/kv", core.DSKV, 2}, {"j/file", core.DSFile, 1}, {"j/q", core.DSQueue, 2}} {
				if _, err := l.CreatePrefix(proto.CreatePrefixReq{Path: p.path, Type: p.t, InitialBlocks: p.blocks}); err != nil {
					return err
				}
			}
			open, err := l.Open("j/kv")
			tiered = open.Map.Blocks[0].Info
			return err
		}},
		{"set root quota", func() error {
			return l.SetQuota("j", core.Quota{OpsPerSec: 1000, MemoryBytes: 1 << 30})
		}},
		{"renew with a missing middle path", func() error {
			r.vclock.Advance(time.Minute)
			if _, err := l.RenewLease([]core.Path{"j/kv", "j/missing", "j/q"}); !errors.Is(err, core.ErrNotFound) {
				t.Errorf("renew over a missing path: %v, want ErrNotFound", err)
			}
			return nil
		}},
		{"remove prefix", func() error { return l.RemovePrefix("j/file") }},
		{"probate a server", func() error {
			err := l.ReportFailure(proto.ReportFailureReq{Server: probated, Degraded: true})
			if !l.ServerProbated(probated) {
				t.Errorf("%s not probated", probated)
			}
			return err
		}},
		{"bootstrap the second standby", func() error {
			r.rebootstrap(r.addrs[2])
			return nil
		}},
		{"fail the probated server", func() error {
			if !l.FailServer(probated) {
				t.Errorf("%s was already dead", probated)
			}
			return nil
		}},
		{"register a server", func() error {
			r.addServer(16)
			return nil
		}},
		{"drain a server", func() error {
			_, err := l.DrainServer(drained)
			return err
		}},
		{"tier demote", func() error {
			_, err := l.ReportTier(proto.ReportTierReq{Server: tiered.Server, Block: tiered.ID,
				Path: "j/kv", Key: "tier/j/kv", Gen: 1, Demoted: true})
			if l.tieredBlockCount() != 1 {
				t.Errorf("%d tier records after a demotion, want 1", l.tieredBlockCount())
			}
			return err
		}},
		{"tier promote", func() error {
			_, err := l.ReportTier(proto.ReportTierReq{Server: tiered.Server, Block: tiered.ID, Gen: 1})
			return err
		}},
		{"deregister job", func() error { return l.DeregisterJob("j") }},
	}
	for _, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		l.PulseNow()
		want := metadataOf(t, l)
		if err := l.SaveState("ckpt/equality"); err != nil {
			t.Fatal(err)
		}
		restored := r.newController()
		if err := restored.RestoreState("ckpt/equality"); err != nil {
			t.Fatalf("%s: restore: %v", s.name, err)
		}
		members := map[string]*Controller{
			"streamed standby": r.standbys[0], "bootstrapped standby": r.standbys[1], "restored controller": restored,
		}
		for name, m := range members {
			if diff := divergence(want, metadataOf(t, m)); diff != nil {
				t.Errorf("after %s: the %s diverges from the leader in %v", s.name, name, diff)
			}
		}
		restored.Close()
	}
}

// rebootstrap marks the standby at addr lost on the leader, so the
// leader's next pulse bootstraps it from a fresh image.
func (r *rebuildRig) rebootstrap(addr string) {
	r.leader.repl.mu.Lock()
	for _, p := range r.leader.repl.peers {
		if p.addr == addr {
			p.lost = true
		}
	}
	r.leader.repl.mu.Unlock()
	r.leader.PulseNow()
}

// TestEmitNodeBytes: a node upsert the leader encodes in place from the
// node is byte for byte the entry of its image, codec.Marshal(replOp{
// Node: imageOfNode(n)}), for a node with two parents, a chained map, a
// flush key and a quota, and for a job root; each ring entry is an
// exact-size copy that later entries do not overwrite, and the scratch
// keeps no reference into the hierarchy and no encode buffer above its
// cap. Both encodes read the node through viewOfNode, so the rich
// node's image is also checked field by field.
func TestEmitNodeBytes(t *testing.T) {
	c, err := New(Options{Config: core.TestConfig(), Persist: persist.NewMemStore(), DisableExpiry: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	now := time.Unix(1700000000, 5).UTC()
	h := hierarchy.New("j", time.Second, now)
	add := func(name string, parents ...*hierarchy.Node) *hierarchy.Node {
		n, err := h.Add(name, parents, core.DSFile, time.Minute, now)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b := add("a", h.Root()), add("b", h.Root())
	n := add("c", a, b)
	n.Map = ds.PartitionMap{Type: core.DSFile, Epoch: 3, ChunkSize: 64, MaxBlocks: 4, Blocks: []ds.PartitionEntry{
		{Info: core.BlockInfo{ID: 9, Server: "s1"}, Chain: core.ReplicaChain{{ID: 9, Server: "s1"}, {ID: 10, Server: "s2"}}},
		{Info: core.BlockInfo{ID: 11, Server: "s2"}, Chunk: 1, Chain: core.ReplicaChain{{ID: 11, Server: "s2"}, {ID: 12, Server: "s1"}}},
	}}
	n.Flushed, n.FlushKey = true, "flush/j/c"
	n.Quota = core.Quota{OpsPerSec: 10, BytesPerSec: 1e6, MemoryBytes: 1 << 20, Weight: 2}
	h.Root().Quota = core.Quota{OpsPerSec: 100}
	// A node whose entry outgrows the scratch cap.
	big := add("big", n)
	for i := range 8000 {
		big.Map.Blocks = append(big.Map.Blocks, ds.PartitionEntry{Info: core.BlockInfo{ID: core.BlockID(100 + i), Server: "s1"}, Chunk: i})
	}

	// The image, field by field: what the in-place encode must match.
	wantImage := nodeImage{Name: "c", Parents: []string{"a", "b"}, LeaseDuration: time.Minute,
		LastRenewed: now, Type: core.DSFile, Map: n.Map.Clone(), Flushed: true, FlushKey: "flush/j/c", Quota: n.Quota}
	if img := imageOfNode(n); !reflect.DeepEqual(img, wantImage) {
		t.Fatalf("imageOfNode = %+v, want %+v", img, wantImage)
	}

	c.repl.on.Store(true)
	defer c.repl.stop()
	nodes := []*hierarchy.Node{n, h.Root(), big, n, a}
	var want [][]byte
	for _, node := range nodes {
		entry, err := codec.Marshal(replOp{Kind: opNodeUpsert, Job: "j", Node: imageOfNode(node), Now: now})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, entry)
		c.repl.emitNode("j", node, now)
	}
	r := c.repl
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) != len(nodes) {
		t.Fatalf("ring holds %d entries, want %d", len(r.ring), len(nodes))
	}
	for i, got := range r.ring {
		if !bytes.Equal(got, want[i]) {
			t.Errorf("entry %d (node %s) encodes to\n%x, want\n%x", i, nodes[i].Name, got, want[i])
		}
		if cap(got) != len(got) {
			t.Errorf("entry %d keeps %d bytes of capacity for %d", i, cap(got), len(got))
		}
	}
	if len(want[2]) <= replScratchMax {
		t.Fatalf("the big node's entry is %d bytes, not above the %d-byte scratch cap", len(want[2]), replScratchMax)
	}
	if cap(r.buf) > replScratchMax {
		t.Errorf("the replicator keeps a %d-byte encode buffer, cap %d", cap(r.buf), replScratchMax)
	}
	if !reflect.ValueOf(r.box).IsZero() {
		t.Errorf("the encode box still holds %+v", r.box)
	}
	for _, name := range r.names[:cap(r.names)] {
		if name != "" {
			t.Errorf("the parent-name scratch still holds %q", name)
		}
	}
}

// TestStandbyBoxCarriesNothing: a standby decodes every streamed entry
// into one box. A node upsert (a map, a quota), a remove of that node
// and a job register streamed in one batch leave the standby's state
// equal to the leader's, and the box empty.
func TestStandbyBoxCarriesNothing(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour
	r := newRebuildRig(t, cfg, 1)
	r.addServer(16)
	l, s := r.leader, r.standbys[0]
	l.PulseNow() // bootstrap the standby; what follows is streamed
	if err := l.RegisterJob("j"); err != nil {
		t.Fatal(err)
	}
	r.assertStandbyMatches()

	if _, err := l.CreatePrefix(proto.CreatePrefixReq{Path: "j/kv", Type: core.DSKV, InitialBlocks: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.SetQuota("j/kv", core.Quota{OpsPerSec: 5, MemoryBytes: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	if err := l.RemovePrefix("j/kv"); err != nil {
		t.Fatal(err)
	}
	if err := l.RegisterJob("k"); err != nil {
		t.Fatal(err)
	}
	if lag := l.repl.lag(); lag < 4 {
		t.Fatalf("%d entries wait for the standby, want the 4 of one batch", lag)
	}
	r.assertStandbyMatches()
	if lag := l.repl.lag(); lag != 0 {
		t.Fatalf("the standby is %d entries behind after the pulse", lag)
	}
	s.applyMu.Lock()
	box := s.applyBox
	s.applyMu.Unlock()
	if !reflect.ValueOf(box).IsZero() {
		t.Errorf("the standby's decode box still holds %+v", box)
	}
	if _, err := s.shardFor("j").job("j"); err != nil {
		t.Fatal(err)
	}
	h, _ := s.shardFor("k").job("k")
	if root := h.Root(); h.Len() != 1 || len(root.Map.Blocks) != 0 || !root.Quota.IsZero() || root.FlushKey != "" {
		t.Errorf("job k's root on the standby = %+v (%d nodes), want a bare root", root, h.Len())
	}
}
