package controller

import (
	"jiffy/internal/core"
	"jiffy/internal/hierarchy"
)

// expiryWorker is the lease manager's scan loop (§4.2.1): periodically
// traverse every address hierarchy, and for each expired prefix flush
// its data to the persistent tier and reclaim its memory blocks
// (§3.2). Flushing before reclaiming guarantees that a lease lost to
// network delays never loses data — the prefix can be loaded back.
func (c *Controller) expiryWorker() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case <-c.clk.After(c.cfg.LeaseScanPeriod):
			c.ExpireNow()
		}
	}
}

// ExpireNow runs one expiry scan synchronously. The trace-replay
// simulator calls this directly under virtual time.
func (c *Controller) ExpireNow() int {
	if !c.leading.Load() {
		// Standbys learn expiries from the leader's op-log; scanning
		// locally would release blocks the leader still tracks.
		return 0
	}
	now := c.clk.Now()
	reclaimed := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for _, h := range s.jobs {
			for _, n := range h.Expired(now) {
				if c.reclaimLocked(n) {
					reclaimed++
				}
			}
		}
		s.mu.Unlock()
	}
	if reclaimed > 0 {
		_ = c.repl.flush()
	}
	return reclaimed
}

// reclaimLocked flushes and frees one expired node's blocks. The node
// itself stays in the hierarchy (marked Flushed) so a late consumer
// can still open the prefix and trigger a reload; it is removed
// entirely only when the job deregisters or RemovePrefix is called. An
// expired prefix also surrenders its quota registration (§3.2's reclaim
// extends to the resource envelope); it is never a job root, so no
// tenant quota moves. Caller holds the shard lock. Returns true if
// blocks were reclaimed.
func (c *Controller) reclaimLocked(n *hierarchy.Node) bool {
	if len(n.Map.Blocks) == 0 {
		if !n.Quota.IsZero() {
			n.Quota = core.Quota{}
			c.commitNodeLocked(n.Job, n)
		}
		return false
	}
	if _, err := c.flushLocked(n, ""); err != nil {
		// Leave the data in memory rather than lose it; the next scan
		// retries.
		c.log.Warn("controller: expiry flush failed; keeping blocks",
			"prefix", n.CanonicalPath(), "err", err)
		return false
	}
	c.releaseBlocksLocked(n)
	n.Quota = core.Quota{}
	n.Flushed = true
	c.commitNodeLocked(n.Job, n)
	c.expiries.Add(1)
	return true
}
