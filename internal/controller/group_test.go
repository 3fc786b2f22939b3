package controller_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"jiffy/internal/client"
	"jiffy/internal/clock"
	"jiffy/internal/controller"
	"jiffy/internal/core"
	"jiffy/internal/persist"
	"jiffy/internal/proto"
	"jiffy/internal/server"
)

// groupRig is a replicated controller group with live memory servers,
// driven in-process under a virtual clock.
type groupRig struct {
	ctrls   []*controller.Controller
	addrs   []string
	servers []*server.Server
	vclock  *clock.Virtual
	store   *persist.MemStore
}

var groupSeq int

func newGroupRig(t *testing.T, cfg core.Config, members, numServers, blocksPerServer int) *groupRig {
	t.Helper()
	groupSeq++
	seq := groupSeq
	r := &groupRig{
		store:  persist.NewMemStore(),
		vclock: clock.NewVirtual(time.Unix(0, 0)),
	}
	for i := 0; i < members; i++ {
		ctrl, err := controller.New(controller.Options{
			Config:        cfg,
			Persist:       r.store,
			Clock:         r.vclock,
			DisableExpiry: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := ctrl.Listen(fmt.Sprintf("mem://group-%d-ctrl-%d", seq, i))
		if err != nil {
			t.Fatal(err)
		}
		r.ctrls = append(r.ctrls, ctrl)
		r.addrs = append(r.addrs, addr)
	}
	// Standbys first, leader last, so the leader's first pulse finds
	// them listening.
	for i := 1; i < members; i++ {
		r.ctrls[i].ConfigureGroup(r.addrs, i, 0)
	}
	r.ctrls[0].ConfigureGroup(r.addrs, 0, 0)

	for i := 0; i < numServers; i++ {
		srv, err := server.New(server.Options{
			Config:          cfg,
			ControllerAddrs: r.addrs,
			Persist:         r.store,
			Clock:           r.vclock,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Listen(fmt.Sprintf("mem://group-%d-srv-%d", seq, i)); err != nil {
			t.Fatal(err)
		}
		if err := srv.Register(blocksPerServer); err != nil {
			t.Fatal(err)
		}
		r.servers = append(r.servers, srv)
	}
	t.Cleanup(func() {
		for _, s := range r.servers {
			s.Close()
		}
		for _, c := range r.ctrls {
			c.Close()
		}
	})
	return r
}

// TestGroupReplicationEquality: because a mutating RPC is acked only
// after the op-log reached every live standby, the standbys' metadata
// equals the leader's after every acked call — jobs, prefixes, quotas
// and partition maps alike. A promoted standby then serves the same
// namespace without ever having talked to the old leader's clients.
func TestGroupReplicationEquality(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour
	r := newGroupRig(t, cfg, 3, 2, 32)

	c, err := client.Dial(context.Background(), client.WithControllers(r.addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	const jobs = 3
	var wantKeys []string
	for j := 0; j < jobs; j++ {
		job := core.JobID(fmt.Sprintf("eq%d", j))
		if err := c.RegisterJob(ctx, job); err != nil {
			t.Fatal(err)
		}
		path := core.Path(string(job)).MustChild("kv")
		if _, _, err := c.CreatePrefix(ctx, path, nil, core.DSKV, 2, 0); err != nil {
			t.Fatal(err)
		}
		kv, err := c.OpenKV(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			key := fmt.Sprintf("%s-k%d", job, i)
			if err := kv.Put(ctx, key, []byte(key)); err != nil {
				t.Fatal(err)
			}
			wantKeys = append(wantKeys, key)
		}
	}
	if err := c.SetQuota(ctx, "eq0", core.Quota{MemoryBytes: 1 << 30}); err != nil {
		t.Fatal(err)
	}

	// Every member holds the same metadata, not just the leader.
	want := r.ctrls[0].Stats()
	for i, ctrl := range r.ctrls[1:] {
		got := ctrl.Stats()
		if got.Jobs != want.Jobs || got.Prefixes != want.Prefixes {
			t.Fatalf("standby %d = %d jobs / %d prefixes, leader %d / %d",
				i+1, got.Jobs, got.Prefixes, want.Jobs, want.Prefixes)
		}
		for j := 0; j < jobs; j++ {
			job := core.JobID(fmt.Sprintf("eq%d", j))
			lp, err := r.ctrls[0].ListPrefixes(job)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := ctrl.ListPrefixes(job)
			if err != nil {
				t.Fatalf("standby %d list %s: %v", i+1, job, err)
			}
			if len(lp.Prefixes) != len(sp.Prefixes) {
				t.Fatalf("standby %d lists %d prefixes for %s, leader %d",
					i+1, len(sp.Prefixes), job, len(lp.Prefixes))
			}
			for k := range lp.Prefixes {
				l, s := lp.Prefixes[k], sp.Prefixes[k]
				if l.Path != s.Path || l.Type != s.Type || l.Blocks != s.Blocks {
					t.Fatalf("standby %d prefix %v diverges from leader %v", i+1, s, l)
				}
			}
		}
	}

	// Kill the leader; promote the first standby explicitly.
	r.ctrls[0].Close()
	if gen := r.ctrls[1].PromoteNow(); gen != 2 {
		t.Fatalf("promotion gen = %d, want 2", gen)
	}

	// The same client keeps working: its next control call re-homes
	// onto the new leader, and every acked write is still reachable
	// through the replicated metadata.
	for j := 0; j < jobs; j++ {
		job := core.JobID(fmt.Sprintf("eq%d", j))
		kv, err := c.OpenKV(ctx, core.Path(string(job)).MustChild("kv"))
		if err != nil {
			t.Fatalf("post-failover open %s: %v", job, err)
		}
		for i := 0; i < 8; i++ {
			key := fmt.Sprintf("%s-k%d", job, i)
			v, err := kv.Get(ctx, key)
			if err != nil || string(v) != key {
				t.Fatalf("acked write %s lost across failover: %q, %v", key, v, err)
			}
		}
	}
	// The rebuilt allocator still places new chains correctly.
	if _, _, err := c.CreatePrefix(ctx, "eq0/fresh", nil, core.DSQueue, 1, 0); err != nil {
		t.Fatalf("post-failover create: %v", err)
	}
	q, err := c.OpenQueue(ctx, "eq0/fresh")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue(ctx, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	role, err := c.ControllerRole(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if role.Leader != r.addrs[1] || role.Gen != 2 {
		t.Fatalf("post-failover role = %+v, want leader %s gen 2", role, r.addrs[1])
	}
}

// TestGroupFailoverDetection drives the suspicion-window failover on a
// virtual clock: when the leader's stream goes silent, the first
// standby promotes itself after one window, and a lower-ranked standby
// would only act after a proportionally longer silence.
func TestGroupFailoverDetection(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour
	cfg.HeartbeatInterval = 50 * time.Millisecond
	cfg.SuspicionWindow = 200 * time.Millisecond
	r := newGroupRig(t, cfg, 3, 1, 16)

	// While the leader pulses, nobody promotes.
	r.vclock.Advance(cfg.SuspicionWindow)
	r.ctrls[0].PulseNow()
	if r.ctrls[1].CheckLeaderNow() {
		t.Fatal("standby promoted under a live leader")
	}

	// Silence the leader. Rank 1 (ctrl 2) must hold back at one
	// window while rank 0 (ctrl 1) is entitled to act.
	r.ctrls[0].Close()
	r.vclock.Advance(cfg.SuspicionWindow + time.Millisecond)
	if r.ctrls[2].CheckLeaderNow() {
		t.Fatal("second standby promoted inside the first standby's window")
	}
	if !r.ctrls[1].CheckLeaderNow() {
		t.Fatal("first standby did not promote after the suspicion window")
	}
	if r.ctrls[1].Failovers() != 1 {
		t.Fatalf("failovers = %d", r.ctrls[1].Failovers())
	}
	role := r.ctrls[1].Role()
	if !role.IsLeader || role.Gen != 2 {
		t.Fatalf("post-detection role = %+v", role)
	}
}

// TestGroupRenewPartialBatch: a renewal batch stops at its first missing
// path on the leader, and the standby renews exactly what the leader
// renewed — not the paths after the failure.
func TestGroupRenewPartialBatch(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour
	r := newGroupRig(t, cfg, 2, 0, 0)
	leader, standby := r.ctrls[0], r.ctrls[1]
	if err := leader.RegisterJob("j"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []core.Path{"j/a", "j/c"} {
		if _, err := leader.CreatePrefix(proto.CreatePrefixReq{Path: p}); err != nil {
			t.Fatal(err)
		}
	}
	r.vclock.Advance(time.Minute)
	if _, err := leader.RenewLease([]core.Path{"j/a", "j/missing", "j/c"}); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("renew over a missing path: %v, want ErrNotFound", err)
	}
	leader.PulseNow()
	for _, p := range []core.Path{"j/a", "j/c"} {
		l, err := leader.LeaseInfo(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := standby.LeaseInfo(p)
		if err != nil {
			t.Fatal(err)
		}
		if !l.LastRenewed.Equal(s.LastRenewed) {
			t.Errorf("%s renewed at %v on the leader, %v on the standby", p, l.LastRenewed, s.LastRenewed)
		}
	}
	if l, _ := leader.LeaseInfo("j/a"); !l.LastRenewed.Equal(r.vclock.Now()) {
		t.Errorf("j/a renewed at %v, want %v (before the missing path)", l.LastRenewed, r.vclock.Now())
	}
}
