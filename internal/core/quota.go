package core

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Quota is the per-tenant (or per-prefix) resource envelope enforced
// by admission control. The hierarchy stores quotas on its nodes:
// rate dimensions (ops/sec, bytes/sec) registered on a job root are
// pushed to every memory server and enforced on the data-plane hot
// path by token buckets; the memory dimension is enforced by the
// controller at block-allocation time against the node's subtree.
// Zero in any dimension means unlimited for that dimension.
type Quota struct {
	// OpsPerSec bounds the tenant's data-plane operation rate.
	OpsPerSec float64
	// BytesPerSec bounds the tenant's data-plane ingress byte rate
	// (request argument bytes).
	BytesPerSec float64
	// MemoryBytes bounds the physical far-memory footprint (all chain
	// replicas counted) of the prefix subtree the quota is set on.
	MemoryBytes int64
	// Weight is the tenant's share of server capacity under
	// deficit-round-robin scheduling when admission queues form
	// (0 means weight 1).
	Weight int
}

// IsZero reports whether no dimension is set.
func (q Quota) IsZero() bool {
	return q.OpsPerSec == 0 && q.BytesPerSec == 0 && q.MemoryBytes == 0 && q.Weight == 0
}

// ThrottleError is the server-side form of ErrQuotaExceeded: the op
// was refused by admission control and the client should wait about
// RetryAfter before retrying. It crosses the wire as CodeQuotaExceeded
// with Error() as the diagnostic payload (see ErrOf).
type ThrottleError struct {
	// Tenant is the job whose quota was exceeded.
	Tenant string
	// RetryAfter estimates when the tenant's token buckets will admit
	// an op of this size again. Zero means "immediately" (the refusal
	// came from queue pressure, not rate).
	RetryAfter time.Duration
}

// Error renders the stable wire form parsed back by parseThrottle.
func (e *ThrottleError) Error() string {
	return fmt.Sprintf("jiffy: quota exceeded: tenant=%s retry_after=%s", e.Tenant, e.RetryAfter)
}

// Unwrap ties the typed error to the ErrQuotaExceeded sentinel.
func (e *ThrottleError) Unwrap() error { return ErrQuotaExceeded }

// parseThrottle reverses (*ThrottleError).Error(); nil if msg is not
// in that form.
func parseThrottle(msg string) *ThrottleError {
	rest, ok := strings.CutPrefix(msg, "jiffy: quota exceeded: tenant=")
	if !ok {
		return nil
	}
	tenant, after, ok := strings.Cut(rest, " retry_after=")
	if !ok {
		return nil
	}
	d, err := time.ParseDuration(after)
	if err != nil {
		return nil
	}
	return &ThrottleError{Tenant: tenant, RetryAfter: d}
}

// RetryAfterOf extracts the backpressure hint from a throttle error
// chain; zero when err carries none.
func RetryAfterOf(err error) time.Duration {
	var te *ThrottleError
	if errors.As(err, &te) {
		return te.RetryAfter
	}
	return 0
}
