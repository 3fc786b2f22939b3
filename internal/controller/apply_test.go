package controller

import (
	"errors"
	"testing"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/proto"
)

// TestGroupApplyEquality drives one scripted sequence through every
// replicated op kind and, after every call, holds four members to the
// same state image: the leader, a standby streamed from the start, a
// standby re-bootstrapped mid-sequence and then streamed, and a
// controller restored from the leader's SaveState.
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
