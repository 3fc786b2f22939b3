package controller

import "time"

// PulseNow runs one leader-side stream pulse synchronously (heartbeat
// to standbys, re-bootstrap of lost ones); a no-op on standbys.
// Deterministic tests call this instead of advancing the group clock.
func (c *Controller) PulseNow() {
	if c.leading.Load() {
		c.repl.pulseNow()
	}
}

// LastBeat returns the recorded heartbeat time for addr.
func (c *Controller) LastBeat(addr string) (time.Time, bool) {
	c.hbMu.Lock()
	defer c.hbMu.Unlock()
	t, ok := c.lastBeat[addr]
	return t, ok
}
