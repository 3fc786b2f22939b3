package core

import (
	"fmt"
	"time"
)

// Size constants.
const (
	KB = 1 << 10
	MB = 1 << 20
	GB = 1 << 30
)

// Paper defaults (§6 "Experimental setup"): 128MB blocks, 1s leases,
// 5%/95% repartition thresholds, 1024 hash slots for the KV store.
const (
	DefaultBlockSize       = 128 * MB
	DefaultLeaseDuration   = 1 * time.Second
	DefaultHighThreshold   = 0.95
	DefaultLowThreshold    = 0.05
	DefaultNumHashSlots    = 1024
	DefaultLeaseScanPeriod = 250 * time.Millisecond
	DefaultRPCTimeout      = 30 * time.Second
	// Failure-detection defaults: servers beat once a second and are
	// declared dead after five missed beats.
	DefaultHeartbeatInterval = 1 * time.Second
	DefaultSuspicionWindow   = 5 * time.Second
	// DefaultQoSMaxWait bounds (in wall time) how long an op may sit in
	// a memory server's admission queue before it is throttled with
	// ErrQuotaExceeded instead of served: long enough to ride out
	// transient contention, short enough that throttled tenants learn
	// about backpressure quickly.
	DefaultQoSMaxWait = 2 * time.Millisecond
	// Tiering defaults: scan once a second and refuse to re-demote a
	// block within ten seconds of its promotion (anti-thrash
	// hysteresis). Tiering itself stays off until a watermark or idle
	// window is configured.
	DefaultTierScanPeriod = 1 * time.Second
	DefaultTierCooldown   = 10 * time.Second
	// A server on gray-failure probation must answer
	// DefaultProbationRecoveryProbes consecutive controller probes to
	// rejoin, so one lucky reply does not lift it.
	DefaultProbationRecoveryProbes = 2
)

// Config carries the tunables evaluated in the paper's sensitivity
// analysis (§6.6) plus deployment knobs. The zero value is not usable;
// call DefaultConfig and override fields. Every field has a row in
// DESIGN.md's knob table saying who sets a second value and what it
// moves (TestKnobTable enforces it); a value nobody varies is a
// Default* constant above, not a field.
type Config struct {
	// BlockSize is the fixed size of every memory block in bytes
	// (Fig. 14a sweeps 32MB–512MB; experiments in this repo scale it
	// down so traces replay in seconds).
	BlockSize int
	// LeaseDuration is the default lease period for address prefixes
	// (Fig. 14b sweeps 0.25s–64s).
	LeaseDuration time.Duration
	// LeaseScanPeriod is how often the expiry worker walks the address
	// hierarchies looking for expired prefixes.
	LeaseScanPeriod time.Duration
	// HighThreshold is the block-usage fraction above which the server
	// signals overload and the controller allocates a new block
	// (Fig. 14c sweeps 60%–99%).
	HighThreshold float64
	// LowThreshold is the usage fraction below which a block becomes a
	// merge candidate and may be reclaimed.
	LowThreshold float64
	// NumHashSlots is the size of the KV store's hash-slot space; slots
	// are the unit of KV repartitioning and each slot lives entirely in
	// one block (§5.3).
	NumHashSlots int
	// ChainLength is the replication chain length for blocks; 1 (the
	// default) disables replication.
	ChainLength int
	// RPCTimeout bounds every RPC without an explicit context deadline,
	// so a peer that stops reading fails the call instead of hanging it.
	// Zero disables the bound (calls wait forever); negative is invalid.
	RPCTimeout time.Duration
	// HeartbeatInterval is how often a memory server sends a liveness
	// beat to the controller, and how often the controller's failure
	// detector rechecks suspicion. Zero disables heartbeats.
	HeartbeatInterval time.Duration
	// SuspicionWindow is how long a server may go without a heartbeat
	// before the controller declares it dead and repairs its chains.
	// Must be at least HeartbeatInterval when heartbeats are enabled.
	SuspicionWindow time.Duration
	// QoSConcurrency bounds concurrent data-plane ops per memory
	// server; when the bound is hit, further ops queue per tenant and
	// are granted in deficit-round-robin order weighted by quota. Zero
	// disables capacity scheduling (token buckets still enforce
	// per-tenant rates for tenants with registered quotas).
	QoSConcurrency int
	// MemoryWatermarkBytes is the per-server resident-memory budget for
	// block payloads. When resident bytes exceed it, the tiering worker
	// demotes the coldest blocks to the persist tier until the server is
	// back under the watermark. Zero disables pressure-driven demotion.
	MemoryWatermarkBytes int64
	// TierCooldown is the anti-thrash hysteresis window: a block is
	// never demoted within TierCooldown of its creation or of its last
	// rehydration, no matter how much pressure the server is under.
	TierCooldown time.Duration
	// TierIdleAfter demotes any block untouched for this long even
	// without memory pressure — the scale-to-zero path for idle
	// tenants. Zero disables idle demotion.
	TierIdleAfter time.Duration
	// TierScanPeriod is how often the tiering worker re-evaluates the
	// demotion policy. Zero disables the background worker; tests then
	// drive scans deterministically via Server.TierTickNow.
	TierScanPeriod time.Duration
}

// DefaultConfig returns the paper's defaults.
func DefaultConfig() Config {
	return Config{
		BlockSize:       DefaultBlockSize,
		LeaseDuration:   DefaultLeaseDuration,
		LeaseScanPeriod: DefaultLeaseScanPeriod,
		HighThreshold:   DefaultHighThreshold,
		LowThreshold:    DefaultLowThreshold,
		NumHashSlots:    DefaultNumHashSlots,
		ChainLength:     1,
		RPCTimeout:      DefaultRPCTimeout,

		HeartbeatInterval: DefaultHeartbeatInterval,
		SuspicionWindow:   DefaultSuspicionWindow,

		TierScanPeriod: DefaultTierScanPeriod,
		TierCooldown:   DefaultTierCooldown,
	}
}

// TestConfig returns a configuration scaled down for fast tests and
// laptop-scale experiments: small blocks, short leases, frequent scans.
func TestConfig() Config {
	c := DefaultConfig()
	c.BlockSize = 64 * KB
	c.LeaseDuration = 200 * time.Millisecond
	c.LeaseScanPeriod = 20 * time.Millisecond
	c.NumHashSlots = 64
	c.RPCTimeout = 10 * time.Second
	// Heartbeats stay off in tests by default: wall-clock suspicion
	// windows short enough to matter are flaky under -race, so recovery
	// tests opt in explicitly and drive detection via a virtual clock.
	c.HeartbeatInterval = 0
	c.SuspicionWindow = 0
	return c
}

// Validate checks invariants between the fields.
func (c Config) Validate() error {
	if c.BlockSize <= 0 {
		return fmt.Errorf("core: block size must be positive, got %d", c.BlockSize)
	}
	if c.LeaseDuration <= 0 {
		return fmt.Errorf("core: lease duration must be positive, got %v", c.LeaseDuration)
	}
	if c.LeaseScanPeriod <= 0 {
		return fmt.Errorf("core: lease scan period must be positive, got %v", c.LeaseScanPeriod)
	}
	if c.HighThreshold <= 0 || c.HighThreshold > 1 {
		return fmt.Errorf("core: high threshold must be in (0,1], got %v", c.HighThreshold)
	}
	if c.LowThreshold < 0 || c.LowThreshold >= c.HighThreshold {
		return fmt.Errorf("core: low threshold must be in [0,high), got %v", c.LowThreshold)
	}
	if c.NumHashSlots <= 0 || c.NumHashSlots&(c.NumHashSlots-1) != 0 {
		return fmt.Errorf("core: hash slots must be a positive power of two, got %d", c.NumHashSlots)
	}
	if c.ChainLength < 1 {
		return fmt.Errorf("core: chain length must be >= 1, got %d", c.ChainLength)
	}
	if c.RPCTimeout < 0 {
		return fmt.Errorf("core: rpc timeout must be >= 0, got %v", c.RPCTimeout)
	}
	if c.HeartbeatInterval < 0 {
		return fmt.Errorf("core: heartbeat interval must be >= 0, got %v", c.HeartbeatInterval)
	}
	if c.HeartbeatInterval > 0 && c.SuspicionWindow < c.HeartbeatInterval {
		return fmt.Errorf("core: suspicion window %v must be >= heartbeat interval %v",
			c.SuspicionWindow, c.HeartbeatInterval)
	}
	if c.QoSConcurrency < 0 {
		return fmt.Errorf("core: qos concurrency must be >= 0, got %d", c.QoSConcurrency)
	}
	if c.MemoryWatermarkBytes < 0 {
		return fmt.Errorf("core: memory watermark must be >= 0, got %d", c.MemoryWatermarkBytes)
	}
	if c.TierCooldown < 0 {
		return fmt.Errorf("core: tier cooldown must be >= 0, got %v", c.TierCooldown)
	}
	if c.TierIdleAfter < 0 {
		return fmt.Errorf("core: tier idle window must be >= 0, got %v", c.TierIdleAfter)
	}
	if c.TierScanPeriod < 0 {
		return fmt.Errorf("core: tier scan period must be >= 0, got %v", c.TierScanPeriod)
	}
	return nil
}
