package controller

import (
	"errors"
	"fmt"
	"sort"

	"jiffy/internal/core"
	"jiffy/internal/proto"
)

// Failure detection (§4.2 fault tolerance): memory servers send
// periodic heartbeats (MethodHeartbeat); the controller tracks each
// server's last beat on its clock and declares a server dead once the
// beat is older than the suspicion window. Death can also be
// established early from write-path evidence — a chain head that could
// not reach its successor files a MethodReportFailure, which the
// controller verifies with its own probe before acting. Either way,
// markServerDead evicts the server's free blocks from the allocator
// (so scale-ups stop selecting it), bumps the cluster membership
// epoch, and chain repair follows (see repair.go).

// Heartbeat records a liveness beat from addr and returns the current
// membership epoch. A beat from a server the controller does not track
// (never registered, declared dead, or the controller restarted)
// returns ErrNotFound: the server must re-register its capacity.
func (c *Controller) Heartbeat(addr string) (uint64, error) {
	c.hbMu.Lock()
	_, known := c.lastBeat[addr]
	if !known || c.deadServers[addr] {
		c.hbMu.Unlock()
		return c.memberEpoch.Load(), fmt.Errorf("controller: server %s is not a live member: %w",
			addr, core.ErrNotFound)
	}
	c.lastBeat[addr] = c.clk.Now()
	c.hbMu.Unlock()
	return c.memberEpoch.Load(), nil
}

// detectorWorker is the failure detector's scan loop, paced at the
// heartbeat interval on the controller's clock (virtual in chaos
// tests, which step it via CheckLivenessNow instead).
func (c *Controller) detectorWorker() {
	defer c.wg.Done()
	t := c.clk.NewTimer(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C():
			c.CheckLivenessNow()
			t.Reset(c.cfg.HeartbeatInterval)
		}
	}
}

// CheckLivenessNow runs one failure-detection scan synchronously,
// declaring dead (and repairing) every tracked server whose last beat
// is older than the suspicion window. Returns the newly dead servers.
// Deterministic tests call this directly under a virtual clock.
func (c *Controller) CheckLivenessNow() []string {
	if c.cfg.SuspicionWindow <= 0 || !c.leading.Load() {
		// Standbys learn server deaths from the op-log; they track beats
		// only to seed their own detector after a promotion.
		return nil
	}
	now := c.clk.Now()
	var suspects []string
	c.hbMu.Lock()
	for addr, beat := range c.lastBeat {
		if !c.deadServers[addr] && now.Sub(beat) > c.cfg.SuspicionWindow {
			suspects = append(suspects, addr)
		}
	}
	c.hbMu.Unlock()
	sort.Strings(suspects)
	var dead []string
	for _, addr := range suspects {
		if c.FailServer(addr) {
			dead = append(dead, addr)
		}
	}
	// Ride the same scan cadence for gray-failure recovery: probe the
	// probated servers and lift probation after enough clean probes.
	// (ProbeProbationNow flushes its own transitions.)
	c.ProbeProbationNow()
	if len(dead) > 0 {
		_ = c.repl.flush()
	}
	return dead
}

// FailServer declares addr dead and synchronously repairs every chain
// that lost a member on it. Returns false if addr was already dead.
// Callers must not hold a shard lock (repair takes them); code that
// does holds one uses evictServer instead.
func (c *Controller) FailServer(addr string) bool {
	if !c.markServerDead(addr) {
		return false
	}
	c.repairAfterDeath(addr)
	return true
}

// evictServer is FailServer for callers holding a shard lock (e.g. a
// scale-up that just discovered an unreachable server): death
// bookkeeping and allocator eviction happen synchronously — so the
// caller's retry cannot re-select the dead server — while chain repair
// runs on its own goroutine once the caller releases the lock.
func (c *Controller) evictServer(addr string) {
	if !c.markServerDead(addr) {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.repairAfterDeath(addr)
	}()
}

// markServerDead applies a server's death, then evicts its free blocks
// from the allocator and drops its pooled connection. Returns false if
// the server was already dead.
func (c *Controller) markServerDead(addr string) bool {
	if !c.applyServerDead(replOp{Kind: opServerDead, Addr: addr}) {
		return false
	}
	c.srvFailures.Add(1)
	c.alloc.RemoveServer(addr)
	c.servers.Drop(addr)
	c.log.Warn("controller: server declared dead", "addr", addr,
		"epoch", c.memberEpoch.Load())
	return true
}

// ServerDead reports whether addr has been declared dead.
func (c *Controller) ServerDead(addr string) bool {
	c.hbMu.Lock()
	defer c.hbMu.Unlock()
	return c.deadServers[addr]
}

// MembershipEpoch returns the cluster membership epoch: it advances on
// every server registration, death and drain.
func (c *Controller) MembershipEpoch() uint64 { return c.memberEpoch.Load() }

// ReportFailure handles write-path failure evidence from a chain head.
// The controller does not take the reporter's word for it: it probes
// the accused server itself. For fail-stop evidence (Degraded unset),
// only a failed probe (or an already broken pooled session) escalates
// to death and repair — this keeps one flaky link between two servers
// from killing a healthy member. For fail-slow evidence (Degraded
// set), a probe that proves the server alive places it on probation
// instead: alive-but-slow must never trigger a chain splice, but it
// should stop attracting new allocations and hedge traffic.
func (c *Controller) ReportFailure(req proto.ReportFailureReq) error {
	if req.Server == "" {
		return fmt.Errorf("controller: failure report without a server: %w", core.ErrNotFound)
	}
	if c.ServerDead(req.Server) {
		return nil // already handled
	}
	_, err := callServer(c, req.Server, proto.ServerStats, proto.ServerStatsReq{})
	var ue *serverUnreachableError
	if err != nil && errors.As(err, &ue) {
		// Connectivity-class failure (undialable, session broken
		// mid-call): the report is corroborated as fail-stop regardless
		// of its evidence class.
		c.log.Warn("controller: failure report confirmed",
			"server", req.Server, "reporter", req.Reporter, "block", req.Block)
		c.FailServer(req.Server)
		return nil
	}
	if req.Degraded {
		// The server answered (or at least errored from its own
		// process): alive, but the reporter measured persistent
		// replication stalls through it. Probate rather than kill.
		if c.setProbation(req.Server, true) {
			c.log.Warn("controller: server placed on gray-failure probation",
				"server", req.Server, "reporter", req.Reporter, "block", req.Block)
			if ferr := c.repl.flush(); ferr != nil {
				return ferr
			}
		}
		return nil
	}
	// A clean reply — or any error the server itself returned,
	// including a probe that merely timed out under load — proves
	// the process is alive; a fail-stop report it does not confirm
	// must not kill a healthy member.
	c.log.Debug("controller: failure report not confirmed by probe",
		"server", req.Server, "reporter", req.Reporter, "probe", err)
	return nil
}

// setProbation applies a probation transition and suspends or resumes
// addr in the allocator to match; a promoted standby re-suspends from the
// replicated set instead. Returns false when the state did not change
// (a dead server is never probated).
func (c *Controller) setProbation(addr string, on bool) bool {
	if !c.applyProbation(replOp{Kind: opServerProbation, Addr: addr, On: on}) {
		return false
	}
	if on {
		c.alloc.Suspend(addr)
	} else {
		c.alloc.Resume(addr)
	}
	return true
}

// ServerProbated reports whether addr is on gray-failure probation.
func (c *Controller) ServerProbated(addr string) bool {
	c.hbMu.Lock()
	defer c.hbMu.Unlock()
	return c.probation[addr]
}

// ProbationList returns the probated servers, sorted.
func (c *Controller) ProbationList() []string {
	c.hbMu.Lock()
	out := make([]string, 0, len(c.probation))
	for addr := range c.probation {
		out = append(out, addr)
	}
	c.hbMu.Unlock()
	sort.Strings(out)
	return out
}

// ProbeProbationNow runs one recovery scan over the probated servers:
// each is probed with MethodServerStats and the round trip measured on
// the controller's clock. core.DefaultProbationRecoveryProbes
// consecutive probes at or under SlowHopThreshold lift the probation
// (the server must prove sustained recovery, not one lucky fast reply); a slow probe
// resets the streak; an unreachable probe escalates to death — a
// probated server that stops answering has crossed from gray to
// fail-stop. Transitions are flushed to the standbys before
// returning. Returns the servers whose probation was lifted.
func (c *Controller) ProbeProbationNow() []string {
	threshold := c.cfg.SlowHopThreshold
	var recovered []string
	changed := false
	for _, addr := range c.ProbationList() {
		start := c.clk.Now()
		_, err := callServer(c, addr, proto.ServerStats, proto.ServerStatsReq{})
		elapsed := c.clk.Now().Sub(start)
		var ue *serverUnreachableError
		if err != nil && errors.As(err, &ue) {
			c.log.Warn("controller: probated server unreachable; escalating to death",
				"server", addr, "err", err)
			c.FailServer(addr)
			changed = true
			continue
		}
		// With fail-slow detection disabled (threshold 0) any live
		// reply counts as clean — probation can then only have been set
		// administratively and reachability is the recovery bar.
		if err != nil || (threshold > 0 && elapsed > threshold) {
			c.hbMu.Lock()
			delete(c.probationStreak, addr)
			c.hbMu.Unlock()
			continue
		}
		c.hbMu.Lock()
		c.probationStreak[addr]++
		streak := c.probationStreak[addr]
		c.hbMu.Unlock()
		if streak >= core.DefaultProbationRecoveryProbes {
			if c.setProbation(addr, false) {
				c.log.Info("controller: gray-failure probation lifted",
					"server", addr, "cleanProbes", streak)
				recovered = append(recovered, addr)
				changed = true
			}
		}
	}
	if changed {
		_ = c.repl.flush()
	}
	return recovered
}
