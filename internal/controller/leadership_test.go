package controller

import (
	"errors"
	"fmt"
	"testing"

	"jiffy/internal/core"
)

// newSoloController builds an unlistened controller for state-machine
// tests; no group is configured unless the test sets one up.
func newSoloController(t *testing.T, shards int) *Controller {
	t.Helper()
	c, err := New(Options{Config: core.TestConfig(), Shards: shards, DisableExpiry: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// joinGroup wires a controller into a group without any peer I/O: the
// test drives fencing transitions directly.
func joinGroup(c *Controller, peers []string, self int, leaderAddr string, gen uint64, leading bool) {
	c.group.mu.Lock()
	c.group.peers = append([]string(nil), peers...)
	c.group.self = self
	c.group.leaderAddr = leaderAddr
	c.group.gen = gen
	c.group.lastLeaderContact = c.clk.Now()
	c.group.mu.Unlock()
	c.leading.Store(leading)
}

// TestLeadershipFencing is the table-driven generation state machine:
// every inbound leadership claim is fenced by generation — lower
// rejected with a redirect to the incumbent, equal refreshed, higher
// adopted (deposing a leader that was out-promoted).
func TestLeadershipFencing(t *testing.T) {
	peers := []string{"ctrl-0", "ctrl-1", "ctrl-2"}
	cases := []struct {
		name       string
		startGen   uint64
		leading    bool
		claimGen   uint64
		claimAddr  string
		wantErr    bool
		wantGen    uint64 // group gen after the claim
		wantLeader string // believed leader after the claim
		wantLead   bool   // still serving clients?
	}{
		{
			name:     "lower generation rejected",
			startGen: 5, leading: false, claimGen: 3, claimAddr: "ctrl-2",
			wantErr: true, wantGen: 5, wantLeader: "ctrl-0", wantLead: false,
		},
		{
			name:     "equal generation refreshes contact",
			startGen: 5, leading: false, claimGen: 5, claimAddr: "ctrl-0",
			wantErr: false, wantGen: 5, wantLeader: "ctrl-0", wantLead: false,
		},
		{
			name:     "higher generation adopted",
			startGen: 5, leading: false, claimGen: 7, claimAddr: "ctrl-2",
			wantErr: false, wantGen: 7, wantLeader: "ctrl-2", wantLead: false,
		},
		{
			name:     "leader deposed by higher generation",
			startGen: 5, leading: true, claimGen: 6, claimAddr: "ctrl-2",
			wantErr: false, wantGen: 6, wantLeader: "ctrl-2", wantLead: false,
		},
		{
			name:     "leader fences a stale claimant",
			startGen: 5, leading: true, claimGen: 4, claimAddr: "ctrl-2",
			wantErr: true, wantGen: 5, wantLeader: "ctrl-0", wantLead: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newSoloController(t, 1)
			self := 1
			joinGroup(c, peers, self, "ctrl-0", tc.startGen, tc.leading)
			err := c.observeLeader(tc.claimGen, tc.claimAddr)
			if (err != nil) != tc.wantErr {
				t.Fatalf("observeLeader(%d) err = %v, wantErr %v", tc.claimGen, err, tc.wantErr)
			}
			if err != nil {
				var nl *core.NotLeaderError
				if !errors.As(err, &nl) {
					t.Fatalf("rejection is %T, want NotLeaderError", err)
				}
				if nl.Gen != tc.startGen {
					t.Errorf("redirect gen = %d, want incumbent %d", nl.Gen, tc.startGen)
				}
			}
			c.group.mu.Lock()
			gen, leader := c.group.gen, c.group.leaderAddr
			c.group.mu.Unlock()
			if gen != tc.wantGen || leader != tc.wantLeader {
				t.Errorf("state = (gen %d, leader %q), want (%d, %q)", gen, leader, tc.wantGen, tc.wantLeader)
			}
			if c.leading.Load() != tc.wantLead {
				t.Errorf("leading = %v, want %v", c.leading.Load(), tc.wantLead)
			}
		})
	}
}

// TestPromoteNow covers the promotion edge of the state machine: a
// standby promotes under a fresh fenced generation exactly once per
// silence episode, and promoting an already-leading controller is an
// idempotent no-op.
func TestPromoteNow(t *testing.T) {
	c := newSoloController(t, 1)
	joinGroup(c, []string{"ctrl-0", "ctrl-1"}, 1, "ctrl-0", 3, false)

	gen := c.PromoteNow()
	if gen != 4 {
		t.Fatalf("promotion gen = %d, want 4", gen)
	}
	if !c.leading.Load() {
		t.Fatal("promoted controller not leading")
	}
	if got := c.failovers.Load(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	role := c.Role()
	if !role.IsLeader || role.Leader != "ctrl-1" || role.Gen != 4 {
		t.Fatalf("post-promotion role = %+v", role)
	}
	// Idempotent: a second promotion returns the current generation and
	// does not count another failover.
	if again := c.PromoteNow(); again != 4 {
		t.Fatalf("re-promotion gen = %d, want 4", again)
	}
	if got := c.failovers.Load(); got != 1 {
		t.Fatalf("failovers after re-promotion = %d, want 1", got)
	}
}

// TestStepDown: a leader that learns of a higher generation from a
// standby's redirect demotes itself; a stale redirect is ignored.
func TestStepDown(t *testing.T) {
	c := newSoloController(t, 1)
	joinGroup(c, []string{"ctrl-0", "ctrl-1"}, 0, "ctrl-0", 5, true)

	// A redirect at or below our generation while leading is stale.
	c.stepDown(&core.NotLeaderError{Leader: "ctrl-1", Gen: 5})
	if !c.leading.Load() {
		t.Fatal("leader stepped down on a stale redirect")
	}
	c.stepDown(&core.NotLeaderError{Leader: "ctrl-1", Gen: 8})
	if c.leading.Load() {
		t.Fatal("leader ignored a higher-generation redirect")
	}
	role := c.Role()
	if role.Leader != "ctrl-1" || role.Gen != 8 {
		t.Fatalf("post-stepdown role = %+v", role)
	}
}

// TestShardMapPartitioning pins the shard-map invariants: shardFor is
// deterministic, every registered job lives in exactly one shard, and
// jobs spread across shards rather than collapsing onto one.
func TestShardMapPartitioning(t *testing.T) {
	const shards, jobs = 4, 64
	c := newSoloController(t, shards)
	for i := 0; i < jobs; i++ {
		if err := c.RegisterJob(core.JobID(fmt.Sprintf("job-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	perShard := make([]int, shards)
	seen := make(map[core.JobID]int)
	for si, sh := range c.shards {
		sh.mu.Lock()
		for job := range sh.jobs {
			if prev, dup := seen[job]; dup {
				t.Errorf("job %s owned by shards %d and %d", job, prev, si)
			}
			seen[job] = si
			perShard[si]++
		}
		sh.mu.Unlock()
	}
	if len(seen) != jobs {
		t.Fatalf("shards hold %d jobs, want %d", len(seen), jobs)
	}
	for job, si := range seen {
		if got := c.shardFor(job); got != c.shards[si] {
			t.Errorf("shardFor(%s) does not resolve to the owning shard", job)
		}
	}
	for si, n := range perShard {
		if n == jobs {
			t.Errorf("shard %d owns every job; hashing degenerate", si)
		}
	}
	// Deregistration fully evicts the job from its shard.
	if err := c.DeregisterJob("job-0"); err != nil {
		t.Fatal(err)
	}
	sh := c.shardFor("job-0")
	sh.mu.Lock()
	_, still := sh.jobs["job-0"]
	sh.mu.Unlock()
	if still {
		t.Fatal("deregistered job still present in its shard")
	}
}
