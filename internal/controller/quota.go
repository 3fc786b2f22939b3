package controller

import (
	"fmt"

	"jiffy/internal/core"
	"jiffy/internal/hierarchy"
	"jiffy/internal/proto"
)

// SetQuota registers a resource quota on the prefix at path. The
// memory dimension constrains the prefix's subtree at allocation time
// (CreatePrefix/ScaleUp). Rate dimensions are meaningful on the job
// root — the tenant boundary the servers key admission on — and are
// pushed to every registered memory server; servers that join later
// receive the quota at registration. A zero quota clears the
// registration.
func (c *Controller) SetQuota(path core.Path, q core.Quota) error {
	if q.OpsPerSec < 0 || q.BytesPerSec < 0 || q.MemoryBytes < 0 || q.Weight < 0 {
		return fmt.Errorf("controller: quota dimensions must be >= 0, got %+v", q)
	}
	var isRoot bool
	err := c.withJob(path.Job(), func(h *hierarchy.Hierarchy) error {
		n, err := h.Resolve(path)
		if err != nil {
			return err
		}
		n.Quota = q
		isRoot = n == h.Root()
		c.commitNodeLocked(n.Job, n)
		return nil
	})
	if err != nil {
		return err
	}
	if isRoot {
		c.pushTenantQuota(string(path.Job()), q)
	}
	return nil
}

// pushTenantQuota fans one tenant's quota out to every registered
// memory server. Push failures are logged and tolerated: an unreachable
// server is either dead (its blocks will be repaired away) or will
// re-register, which replays the quota table.
func (c *Controller) pushTenantQuota(tenant string, q core.Quota) {
	for _, addr := range c.alloc.Servers() {
		if err := c.setTenantQuotaOnServer(addr, tenant, q); err != nil {
			c.log.Warn("controller: tenant quota push failed",
				"server", addr, "tenant", tenant, "err", err)
		}
	}
}

// pushTenantQuotas replays the full tenant quota table to one server
// (registration-time catch-up).
func (c *Controller) pushTenantQuotas(addr string) {
	c.qMu.Lock()
	quotas := make(map[string]core.Quota, len(c.tenantQuotas))
	for t, q := range c.tenantQuotas {
		quotas[t] = q
	}
	c.qMu.Unlock()
	for t, q := range quotas {
		if err := c.setTenantQuotaOnServer(addr, t, q); err != nil {
			c.log.Warn("controller: tenant quota replay failed",
				"server", addr, "tenant", t, "err", err)
		}
	}
}

// setTenantQuotaOnServer installs one tenant's rate quota on a memory
// server's admission gate.
func (c *Controller) setTenantQuotaOnServer(addr, tenant string, q core.Quota) error {
	_, err := callServer(c, addr, proto.SetTenantQuota, proto.SetTenantQuotaReq{Tenant: tenant, Quota: q})
	return err
}

// checkMemoryQuotaLocked verifies that adding addBlocks physical
// blocks (chain replicas counted individually) under n stays within
// every governing memory quota: n's own and each quota-bearing
// ancestor's subtree budget. Caller holds the shard lock.
func (c *Controller) checkMemoryQuotaLocked(n *hierarchy.Node, addBlocks int) error {
	for _, owner := range n.QuotaOwners() {
		need := int64(owner.SubtreePhysicalBlocks()+addBlocks) * int64(c.cfg.BlockSize)
		if need > owner.Quota.MemoryBytes {
			return fmt.Errorf("controller: prefix %q memory quota %dB exceeded (allocation needs %dB): %w",
				owner.CanonicalPath(), owner.Quota.MemoryBytes, need, core.ErrQuotaExceeded)
		}
	}
	return nil
}
