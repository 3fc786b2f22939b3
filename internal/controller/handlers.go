package controller

import (
	"context"

	"jiffy/internal/proto"
	"jiffy/internal/rpc"
	"jiffy/internal/wire"
)

// handle serves one control RPC from the method table. The request
// context (span propagation, cancellation) is consumed by the rpc
// layer's dispatch instrumentation; controller-internal operations are
// lock-scoped and do not block on remote peers mid-request except via
// the server pool, which applies its own deadlines.
//
// A leader-only method is answered with a NotLeaderError redirect on a
// standby, before its body is decoded; on the leader its response is
// withheld until the op-log reaches every live standby (repl.flush), so
// an acknowledged mutation survives failover.
func (c *Controller) handle(ctx context.Context, conn *rpc.ServerConn, method uint16, payload []byte) ([]byte, error) {
	c.ops.Add(1)
	leaderOnly := c.onLeader[method]
	if leaderOnly && !c.leading.Load() {
		nl := c.notLeaderErr()
		return []byte(nl.Error()), nl
	}
	resp, err := c.table.Dispatch(ctx, conn, method, payload)
	if err == nil && leaderOnly {
		// A no-op when nothing was emitted or no group is set.
		if ferr := c.repl.flush(); ferr != nil {
			wire.PutBuf(resp) // Handle's pooled body, never sent
			return []byte(ferr.Error()), ferr
		}
	}
	return resp, err
}

// anyMember registers a group-protocol method: served by leader and
// standbys alike, never held for the op-log.
func anyMember[Req, Resp any](c *Controller, m proto.Method[Req, Resp], fn func(Req) (Resp, error)) {
	rpc.Handle(&c.table, m, func(_ context.Context, _ *rpc.ServerConn, req Req) (Resp, error) {
		return fn(req)
	})
}

// leaderOnly registers a method only the leader serves (see handle).
func leaderOnly[Req, Resp any](c *Controller, m proto.Method[Req, Resp], fn func(Req) (Resp, error)) {
	c.onLeader[m.ID] = true
	anyMember(c, m, fn)
}

// buildTable declares what the controller serves: the replication
// stream, role queries and promotion on any member, everything else on
// the leader.
func (c *Controller) buildTable() {
	c.onLeader = make(map[uint16]bool)

	anyMember(c, proto.CtrlReplicate, c.handleReplicate)
	anyMember(c, proto.CtrlBootstrap, c.handleBootstrap)
	anyMember(c, proto.CtrlRole, func(proto.CtrlRoleReq) (proto.CtrlRoleResp, error) {
		return c.Role(), nil
	})
	anyMember(c, proto.CtrlPromote, func(proto.CtrlPromoteReq) (proto.CtrlPromoteResp, error) {
		return proto.CtrlPromoteResp{Gen: c.PromoteNow()}, nil
	})

	leaderOnly(c, proto.RegisterJob, func(r proto.RegisterJobReq) (proto.RegisterJobResp, error) {
		return proto.RegisterJobResp{}, c.RegisterJob(r.Job)
	})
	leaderOnly(c, proto.DeregisterJob, func(r proto.DeregisterJobReq) (proto.DeregisterJobResp, error) {
		return proto.DeregisterJobResp{}, c.DeregisterJob(r.Job)
	})
	leaderOnly(c, proto.CreatePrefix, c.CreatePrefix)
	leaderOnly(c, proto.CreateHierarchy, func(r proto.CreateHierarchyReq) (proto.CreateHierarchyResp, error) {
		return proto.CreateHierarchyResp{}, c.CreateHierarchy(r)
	})
	leaderOnly(c, proto.RemovePrefix, func(r proto.RemovePrefixReq) (proto.RemovePrefixResp, error) {
		return proto.RemovePrefixResp{}, c.RemovePrefix(r.Path)
	})
	leaderOnly(c, proto.RenewLease, func(r proto.RenewLeaseReq) (proto.RenewLeaseResp, error) {
		n, err := c.RenewLease(r.Paths)
		return proto.RenewLeaseResp{Renewed: n}, err
	})
	leaderOnly(c, proto.LeaseInfo, func(r proto.LeaseInfoReq) (proto.LeaseInfoResp, error) {
		return c.LeaseInfo(r.Path)
	})
	leaderOnly(c, proto.Open, func(r proto.OpenReq) (proto.OpenResp, error) {
		return c.Open(r.Path)
	})
	leaderOnly(c, proto.FlushPrefix, func(r proto.FlushPrefixReq) (proto.FlushPrefixResp, error) {
		n, err := c.FlushPrefix(r.Path, r.ExternalPath)
		return proto.FlushPrefixResp{Blocks: n}, err
	})
	leaderOnly(c, proto.LoadPrefix, func(r proto.LoadPrefixReq) (proto.LoadPrefixResp, error) {
		return c.LoadPrefix(r.Path, r.ExternalPath)
	})
	leaderOnly(c, proto.RegisterServer, func(r proto.RegisterServerReq) (proto.RegisterServerResp, error) {
		mark, err := c.RegisterServer(r.Addr, r.NumBlocks)
		return proto.RegisterServerResp{FirstID: mark}, err
	})
	leaderOnly(c, proto.Heartbeat, func(r proto.HeartbeatReq) (proto.HeartbeatResp, error) {
		epoch, err := c.Heartbeat(r.Addr)
		return proto.HeartbeatResp{Epoch: epoch}, err
	})
	leaderOnly(c, proto.ReportFailure, func(r proto.ReportFailureReq) (proto.ReportFailureResp, error) {
		return proto.ReportFailureResp{}, c.ReportFailure(r)
	})
	leaderOnly(c, proto.ReportTier, c.ReportTier)
	leaderOnly(c, proto.DrainServer, func(r proto.DrainServerReq) (proto.DrainServerResp, error) {
		n, err := c.DrainServer(r.Addr)
		return proto.DrainServerResp{Migrated: n}, err
	})
	leaderOnly(c, proto.ScaleUp, c.ScaleUp)
	leaderOnly(c, proto.ScaleDown, c.ScaleDown)
	leaderOnly(c, proto.SaveState, func(r proto.SaveStateReq) (proto.SaveStateResp, error) {
		return proto.SaveStateResp{}, c.SaveState(r.Key)
	})
	leaderOnly(c, proto.ControllerStats, func(proto.ControllerStatsReq) (proto.ControllerStatsResp, error) {
		return c.Stats(), nil
	})
	leaderOnly(c, proto.SetQuota, func(r proto.SetQuotaReq) (proto.SetQuotaResp, error) {
		return proto.SetQuotaResp{}, c.SetQuota(r.Path, r.Quota)
	})
	leaderOnly(c, proto.ListPrefixes, func(r proto.ListPrefixesReq) (proto.ListPrefixesResp, error) {
		return c.ListPrefixes(r.Job)
	})
}
