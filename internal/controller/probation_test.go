package controller_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"jiffy/internal/client"
	"jiffy/internal/clock"
	"jiffy/internal/core"
	"jiffy/internal/proto"
)

// TestProbationLifecycle walks gray-failure probation end to end on a
// single controller: a Degraded failure report against a reachable
// server places it on probation (not death — no chain splice, no
// membership change), the stats surface it, and the recovery prober
// lifts the probation only after the configured number of consecutive
// clean probes.
func TestProbationLifecycle(t *testing.T) {
	vclock := clock.NewVirtual(time.Unix(0, 0))
	ctrl, srvs := recoveryCtrl(t, vclock, 3, 16, 16, 16)
	slow := srvs[2].Addr()

	epochBefore := ctrl.MembershipEpoch()
	if err := ctrl.ReportFailure(proto.ReportFailureReq{
		Reporter: srvs[0].Addr(), Server: slow, Degraded: true,
	}); err != nil {
		t.Fatal(err)
	}
	if !ctrl.ServerProbated(slow) {
		t.Fatal("degraded report against a live server did not probate it")
	}
	if ctrl.ServerDead(slow) {
		t.Fatal("degraded report killed a live server")
	}
	if got := ctrl.MembershipEpoch(); got != epochBefore {
		t.Fatalf("probation changed the membership epoch: %d -> %d", epochBefore, got)
	}
	stats := ctrl.Stats()
	if len(stats.DegradedServers) != 1 || stats.DegradedServers[0] != slow {
		t.Fatalf("DegradedServers = %v, want [%s]", stats.DegradedServers, slow)
	}

	// A duplicate report is a no-op, not a second transition.
	if err := ctrl.ReportFailure(proto.ReportFailureReq{
		Reporter: srvs[1].Addr(), Server: slow, Degraded: true,
	}); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.ProbationList(); len(got) != 1 {
		t.Fatalf("probation list after duplicate report = %v", got)
	}

	// Recovery takes core.DefaultProbationRecoveryProbes consecutive clean probes:
	// one is not enough.
	if rec := ctrl.ProbeProbationNow(); len(rec) != 0 {
		t.Fatalf("probation lifted after a single clean probe: %v", rec)
	}
	if !ctrl.ServerProbated(slow) {
		t.Fatal("probation vanished before the recovery streak completed")
	}
	if rec := ctrl.ProbeProbationNow(); len(rec) != 1 || rec[0] != slow {
		t.Fatalf("second clean probe did not lift probation: %v", rec)
	}
	if ctrl.ServerProbated(slow) {
		t.Fatal("server still probated after recovery")
	}

	// Re-probate, then make the server unreachable: a probated server
	// that stops answering is escalated from gray to fail-stop.
	if err := ctrl.ReportFailure(proto.ReportFailureReq{
		Reporter: srvs[0].Addr(), Server: slow, Degraded: true,
	}); err != nil {
		t.Fatal(err)
	}
	srvs[2].Close()
	if rec := ctrl.ProbeProbationNow(); len(rec) != 0 {
		t.Fatalf("unreachable probated server reported recovered: %v", rec)
	}
	if !ctrl.ServerDead(slow) {
		t.Fatal("unreachable probated server was not declared dead")
	}
	if ctrl.ServerProbated(slow) {
		t.Fatal("death did not clear probation")
	}
}

// TestProbationRefusesUnknownServer: a failure report is evidence
// about a member, so a report naming an address the controller does not
// track — never registered, the controller's own, or empty — answers
// ErrNotFound and changes nothing: no death, no membership epoch move,
// no probation. A report on a server already declared dead still
// answers nil.
func TestProbationRefusesUnknownServer(t *testing.T) {
	vclock := clock.NewVirtual(time.Unix(0, 0))
	ctrl, srvs := recoveryCtrl(t, vclock, 2, 8, 8)
	reporter := srvs[0].Addr()
	self := "mem://recovery-ctrl-" + t.Name()
	const stranger = "mem://no-such-server"

	epoch := ctrl.MembershipEpoch()
	for _, req := range []proto.ReportFailureReq{
		{Reporter: reporter, Server: stranger},
		{Reporter: reporter, Server: stranger, Degraded: true},
		{Reporter: reporter, Server: self},
		{Reporter: reporter, Server: self, Degraded: true},
		{Reporter: reporter},
	} {
		if err := ctrl.ReportFailure(req); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("report %+v: %v, want ErrNotFound", req, err)
		}
	}
	if got := ctrl.MembershipEpoch(); got != epoch {
		t.Errorf("membership epoch %d -> %d after reports on untracked addresses", epoch, got)
	}
	if ctrl.ServerDead(stranger) || ctrl.ServerDead(self) {
		t.Error("a report on an untracked address declared it dead")
	}
	if d := ctrl.Stats().DegradedServers; len(d) != 0 {
		t.Errorf("DegradedServers = %v after reports on untracked addresses, want none", d)
	}

	victim := srvs[1].Addr()
	if !ctrl.FailServer(victim) {
		t.Fatalf("%s was already dead", victim)
	}
	for _, degraded := range []bool{false, true} {
		if err := ctrl.ReportFailure(proto.ReportFailureReq{
			Reporter: reporter, Server: victim, Degraded: degraded,
		}); err != nil {
			t.Errorf("report (degraded %v) on a dead server: %v, want nil", degraded, err)
		}
	}
}

// TestProbationAllocationSteering: while a server is on probation the
// allocator places new blocks on healthy servers only, falling back to
// the probated pool when the healthy servers cannot cover a request.
func TestProbationAllocationSteering(t *testing.T) {
	vclock := clock.NewVirtual(time.Unix(0, 0))
	ctrl, srvs := recoveryCtrl(t, vclock, 2, 4, 4)
	slow := srvs[1].Addr()
	if err := ctrl.ReportFailure(proto.ReportFailureReq{
		Reporter: srvs[0].Addr(), Server: slow, Degraded: true,
	}); err != nil {
		t.Fatal(err)
	}

	if err := ctrl.RegisterJob("steer"); err != nil {
		t.Fatal(err)
	}
	// Four single-block prefixes fit on the healthy server alone; none
	// may land on the probated one.
	for i := 0; i < 4; i++ {
		path := core.Path("steer").MustChild(string(rune('a' + i)))
		if _, err := ctrl.CreatePrefix(proto.CreatePrefixReq{
			Path: path, Type: core.DSKV, InitialBlocks: 1,
		}); err != nil {
			t.Fatal(err)
		}
		resp, err := ctrl.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range resp.Map.Blocks {
			if e.Info.Server == slow {
				t.Fatalf("block %v placed on probated server %s", e.Info, slow)
			}
		}
		if len(resp.Probation) != 1 || resp.Probation[0] != slow {
			t.Fatalf("OpenResp.Probation = %v, want [%s]", resp.Probation, slow)
		}
	}
	// The healthy server is now exhausted: the next allocation must
	// fall back to the probated server rather than fail.
	if _, err := ctrl.CreatePrefix(proto.CreatePrefixReq{
		Path: core.Path("steer").MustChild("overflow"), Type: core.DSKV, InitialBlocks: 2,
	}); err != nil {
		t.Fatalf("allocation with only probated capacity left failed: %v", err)
	}
	resp, err := ctrl.Open(core.Path("steer").MustChild("overflow"))
	if err != nil {
		t.Fatal(err)
	}
	fallback := false
	for _, e := range resp.Map.Blocks {
		if e.Info.Server == slow {
			fallback = true
		}
	}
	if !fallback {
		t.Fatal("overflow allocation did not fall back to the probated server")
	}
}

// TestProbationSurvivesFailover is the crash-consistency check for the
// probation op-log kind: a probation set on the leader replicates to
// the standbys, survives the leader's death, and the promoted standby
// both reports it and keeps steering allocation away from the probated
// server — then lifts it through its own recovery probes.
func TestProbationSurvivesFailover(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour
	r := newGroupRig(t, cfg, 3, 2, 8)
	slow := r.servers[1].Addr()

	if err := r.ctrls[0].ReportFailure(proto.ReportFailureReq{
		Reporter: r.servers[0].Addr(), Server: slow, Degraded: true,
	}); err != nil {
		t.Fatal(err)
	}
	if !r.ctrls[0].ServerProbated(slow) {
		t.Fatal("leader did not probate the reported server")
	}
	// ReportFailure flushes the op-log before returning, so the
	// standbys already mirror the probation.
	for i, ctrl := range r.ctrls[1:] {
		if !ctrl.ServerProbated(slow) {
			t.Fatalf("standby %d missing replicated probation", i+1)
		}
	}

	// Kill the leader and promote the first standby. The promotion
	// rebuilds the allocator from replicated metadata and must re-apply
	// the probation suspension to it.
	r.ctrls[0].Close()
	if gen := r.ctrls[1].PromoteNow(); gen != 2 {
		t.Fatalf("promotion gen = %d, want 2", gen)
	}
	if !r.ctrls[1].ServerProbated(slow) {
		t.Fatal("probation lost across controller failover")
	}
	if stats := r.ctrls[1].Stats(); len(stats.DegradedServers) != 1 || stats.DegradedServers[0] != slow {
		t.Fatalf("new leader DegradedServers = %v, want [%s]", stats.DegradedServers, slow)
	}

	// New allocations on the promoted leader avoid the probated server.
	c, err := client.Dial(context.Background(), client.WithControllers(r.addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.RegisterJob(ctx, "failover"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.CreatePrefix(ctx, "failover/kv", nil, core.DSKV, 2, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := r.ctrls[1].Open(core.Path("failover").MustChild("kv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range resp.Map.Blocks {
		if e.Info.Server == slow {
			t.Fatalf("promoted leader placed block %v on probated server", e.Info)
		}
	}

	// The promoted leader's own recovery probes lift the probation and
	// replicate the lift to the surviving standby. The pulse first
	// bootstraps the standby onto the new leader's stream — its
	// snapshot carries the probation set.
	r.ctrls[1].PulseNow()
	r.ctrls[1].ProbeProbationNow()
	if rec := r.ctrls[1].ProbeProbationNow(); len(rec) != 1 || rec[0] != slow {
		t.Fatalf("promoted leader did not lift probation: %v", rec)
	}
	if r.ctrls[2].ServerProbated(slow) {
		t.Fatal("probation lift did not replicate to the standby")
	}
}

// TestProbationClearedByDeathOnStandby: a probated server that dies is
// dead, not degraded, on every member — the standby's death apply clears
// probation as the leader's does, so a promoted standby reports no
// degraded server.
func TestProbationClearedByDeathOnStandby(t *testing.T) {
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Hour
	r := newGroupRig(t, cfg, 2, 2, 8)
	slow := r.servers[1].Addr()
	if err := r.ctrls[0].ReportFailure(proto.ReportFailureReq{
		Reporter: r.servers[0].Addr(), Server: slow, Degraded: true,
	}); err != nil {
		t.Fatal(err)
	}
	if !r.ctrls[1].ServerProbated(slow) {
		t.Fatal("standby missing replicated probation")
	}
	r.ctrls[0].FailServer(slow)
	r.ctrls[0].PulseNow()
	if !r.ctrls[1].ServerDead(slow) {
		t.Fatal("standby missing replicated death")
	}
	if r.ctrls[1].ServerProbated(slow) {
		t.Error("standby keeps a dead server on probation")
	}
	r.ctrls[0].Close()
	r.ctrls[1].PromoteNow()
	if degraded := r.ctrls[1].Stats().DegradedServers; len(degraded) != 0 {
		t.Errorf("promoted standby reports degraded servers %v, want none", degraded)
	}
}
