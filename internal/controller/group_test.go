package controller_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"jiffy/internal/client"
	"jiffy/internal/clock"
	"jiffy/internal/controller"
	"jiffy/internal/core"
	"jiffy/internal/obs"
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
	var buf bytes.Buffer
	r.ctrls[1].Obs().WritePrometheus(&buf)
	if n := obs.ParsePrometheus(buf.Bytes())["jiffy_ctrl_failovers_total"]; n != 1 {
		t.Fatalf("failovers = %g", n)
	}
	role := r.ctrls[1].Role()
	if !role.IsLeader || role.Gen != 2 {
		t.Fatalf("post-detection role = %+v", role)
	}
}

// TestGroupRenewPartialBatch: a renewal batch stops at its first missing
// path on the leader: the paths before it are renewed, the paths after
// it are not. (A renewal is leader-local; the standby's side is
// TestGroupLeaseSurvivesFailover's.)
func TestGroupRenewPartialBatch(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour
	r := newGroupRig(t, cfg, 2, 0, 0)
	leader := r.ctrls[0]
	if err := leader.RegisterJob("j"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []core.Path{"j/a", "j/c"} {
		if _, err := leader.CreatePrefix(proto.CreatePrefixReq{Path: p}); err != nil {
			t.Fatal(err)
		}
	}
	created := r.vclock.Now()
	r.vclock.Advance(time.Minute)
	if _, err := leader.RenewLease([]core.Path{"j/a", "j/missing", "j/c"}); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("renew over a missing path: %v, want ErrNotFound", err)
	}
	for p, want := range map[core.Path]time.Time{"j/a": r.vclock.Now(), "j/c": created} {
		l, err := leader.LeaseInfo(p)
		if err != nil {
			t.Fatal(err)
		}
		if !l.LastRenewed.Equal(want) {
			t.Errorf("%s renewed at %v, want %v", p, l.LastRenewed, want)
		}
	}
}

// TestGroupLeaseSurvivesFailover: renewals are leader-local, so the
// leader's successor — a promoted standby, or a controller restored from
// a checkpoint — holds lease timestamps older than the last renewal the
// leader acked, and grants every lease a fresh term. With the leader
// killed 0.9 × lease after the last renewal, the successor keeps the
// renewed prefix for one more full lease, and a prefix nobody renews —
// its lease already lapsed, but no scan had reclaimed it yet — still
// expires within lease + scan period of the takeover.
func TestGroupLeaseSurvivesFailover(t *testing.T) {
	for _, via := range []string{"promotion", "restore"} {
		t.Run(via, func(t *testing.T) {
			cfg := core.TestConfig()
			lease, scan := cfg.LeaseDuration, cfg.LeaseScanPeriod
			r := newGroupRig(t, cfg, 2, 1, 8)
			leader := r.ctrls[0]
			if err := leader.RegisterJob("j"); err != nil {
				t.Fatal(err)
			}
			for _, p := range []core.Path{"j/renewed", "j/idle"} {
				if _, err := leader.CreatePrefix(proto.CreatePrefixReq{Path: p, Type: core.DSKV, InitialBlocks: 1}); err != nil {
					t.Fatal(err)
				}
			}
			r.vclock.Advance(lease / 2)
			// The checkpoint predates the renewal, as the standby's mirror does.
			if err := leader.SaveState("ckpt/lease"); err != nil {
				t.Fatal(err)
			}
			if _, err := leader.RenewLease([]core.Path{"j/renewed"}); err != nil {
				t.Fatal(err)
			}
			leader.PulseNow() // what the handler's flush does before each ack
			r.vclock.Advance(lease * 9 / 10)
			leader.Close()

			next := r.ctrls[1]
			if via == "promotion" {
				next.PromoteNow()
			} else {
				var err error
				if next, err = controller.New(controller.Options{
					Config: cfg, Persist: r.store, Clock: r.vclock, DisableExpiry: true,
				}); err != nil {
					t.Fatal(err)
				}
				defer next.Close()
				if err := next.RestoreState("ckpt/lease"); err != nil {
					t.Fatal(err)
				}
			}
			takeover := r.vclock.Now()
			for ; r.vclock.Now().Sub(takeover) <= lease; r.vclock.Advance(scan) {
				if n := next.ExpireNow(); n != 0 {
					t.Fatalf("%v after the takeover: %d prefixes expired, want none inside one full lease",
						r.vclock.Now().Sub(takeover), n)
				}
			}
			if n := next.ExpireNow(); n != 2 {
				t.Fatalf("%v after the takeover: %d prefixes expired, want both (lease %v, scan %v)",
					r.vclock.Now().Sub(takeover), n, lease, scan)
			}
		})
	}
}
