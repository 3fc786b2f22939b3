// Package jiffy is a Go implementation of Jiffy, the elastic
// far-memory system for stateful serverless analytics from EuroSys '22
// ("Jiffy: Elastic Far-Memory for Stateful Serverless Analytics",
// Khandelwal et al.).
//
// Jiffy stores intermediate data for analytics jobs in memory blocks
// spread across a pool of memory servers, allocating capacity at the
// granularity of small fixed-size blocks rather than whole-job
// reservations. Jobs organize their data in a hierarchical address
// space that mirrors their execution DAG; leases tied to that hierarchy
// manage data lifetime (renewing a task's prefix keeps its inputs and
// consumers alive); and data structures repartition themselves inside
// the storage system as blocks fill and drain.
//
// # Quick start
//
//	cluster, _ := jiffy.StartCluster(jiffy.ClusterOptions{
//		Servers:         2,
//		BlocksPerServer: 64,
//	})
//	defer cluster.Close()
//
//	ctx := context.Background()
//	c, _ := cluster.Connect(ctx)
//	defer c.Close()
//
//	c.RegisterJob(ctx, "job1")
//	c.CreatePrefix(ctx, "job1/task1", nil, core.DSKV, 1, 0)
//	kv, _ := c.OpenKV(ctx, "job1/task1")
//	kv.Put(ctx, "hello", []byte("world"))
//
// Every data-path call takes a context.Context: a context deadline
// bounds the call (taking precedence over the session RPC timeout) and
// cancellation aborts retries promptly. Connections are configured with
// functional options (WithRPCTimeout, WithRetryPolicy, WithTracing).
//
// The public surface re-exports the client library (the user-facing
// API of Table 1 in the paper) plus cluster bootstrap helpers; the
// mechanisms live under internal/.
package jiffy

import (
	"context"
	"time"

	"jiffy/internal/client"
	"jiffy/internal/core"
	"jiffy/internal/obs"
	"jiffy/internal/proto"
)

// Re-exported types: the public API mirrors the paper's user-facing
// interface (Table 1).
type (
	// Client is a connection to a Jiffy cluster.
	Client = client.Client
	// KV is a key-value store handle (§5.3).
	KV = client.KV
	// File is an append-oriented file handle (§5.1).
	File = client.File
	// Queue is a FIFO queue handle (§5.2).
	Queue = client.Queue
	// Listener delivers data-structure notifications.
	Listener = client.Listener
	// Renewer keeps leases alive for a set of prefixes.
	Renewer = client.Renewer
	// MultiError carries per-op outcomes of a batched call.
	MultiError = client.MultiError
	// KVPair is one key-value pair in a KV.MultiPut.
	KVPair = client.KVPair
	// Path is a hierarchical address prefix ("job/task/...").
	Path = core.Path
	// JobID identifies a registered job.
	JobID = core.JobID
	// DSType selects a built-in data structure.
	DSType = core.DSType
	// DagNode describes one task when building a hierarchy from an
	// execution plan (createHierarchy).
	DagNode = proto.DagNode
	// Config carries the system tunables (block size, lease duration,
	// repartition thresholds).
	Config = core.Config
	// Quota carries a tenant's resource limits (ops/sec, bytes/sec,
	// memory bytes) and its DRR scheduling weight.
	Quota = core.Quota
	// ThrottleError is the typed admission refusal carrying the
	// throttled tenant and the server's retry-after hint.
	ThrottleError = core.ThrottleError
	// NotLeaderError is the typed redirect a controller standby answers
	// with, carrying the current leader's address and generation.
	NotLeaderError = core.NotLeaderError

	// Option configures a connection (see WithRPCTimeout,
	// WithRetryPolicy, WithTracing).
	Option = client.Option
	// RetryPolicy bounds the client op pipeline's recovery.
	RetryPolicy = client.RetryPolicy

	// SpanExporter receives completed RPC spans when tracing is on.
	SpanExporter = obs.SpanExporter
	// SpanEvent is one completed span delivered to a SpanExporter.
	SpanEvent = obs.SpanEvent
)

// Data structure types for CreatePrefix / DagNode.
const (
	DSNone  = core.DSNone
	DSFile  = core.DSFile
	DSQueue = core.DSQueue
	DSKV    = core.DSKV
)

// Common errors returned by the API.
var (
	ErrNotFound     = core.ErrNotFound
	ErrExists       = core.ErrExists
	ErrNoCapacity   = core.ErrNoCapacity
	ErrEmpty        = core.ErrEmpty
	ErrLeaseExpired = core.ErrLeaseExpired
	ErrTimeout      = core.ErrTimeout
	ErrBlockLost    = core.ErrBlockLost
	// ErrQuotaExceeded reports a QoS admission refusal; match with
	// errors.Is and read the backpressure hint with RetryAfterOf.
	ErrQuotaExceeded = core.ErrQuotaExceeded
	// ErrNotLeader reports a control call that reached a controller
	// standby; the client re-homes on it automatically, so user code
	// sees it only after the retry budget is exhausted.
	ErrNotLeader = core.ErrNotLeader
)

// RetryAfterOf extracts the server's retry-after hint from a quota
// refusal (zero when err carries none).
func RetryAfterOf(err error) time.Duration { return core.RetryAfterOf(err) }

// DefaultConfig returns the paper's defaults: 128MB blocks, 1s leases,
// 95%/5% repartition thresholds, 1024 hash slots.
func DefaultConfig() Config { return core.DefaultConfig() }

// Connection options, re-exported from the client library.
var (
	// WithRPCTimeout sets the per-call RPC timeout (zero keeps the
	// default; negative disables the session timeout — a context
	// deadline still applies).
	WithRPCTimeout = client.WithRPCTimeout
	// WithRetryPolicy bounds the op pipeline's recovery (retries, backoff,
	// throttle waits).
	WithRetryPolicy = client.WithRetryPolicy
	// WithTracing enables span collection on the connection, delivering
	// completed spans to the exporter (see NewRingExporter).
	WithTracing = client.WithTracing
	// WithControllers lists the controller group endpoints for Dial; the
	// client discovers the leader among them and re-homes on failover.
	WithControllers = client.WithControllers
)

// DefaultRetryPolicy returns the default retry budget.
func DefaultRetryPolicy() RetryPolicy { return client.DefaultRetryPolicy() }

// NewRingExporter returns a fixed-capacity in-memory span sink: the
// last n completed spans are retained and readable via Spans().
func NewRingExporter(n int) *obs.RingExporter { return obs.NewRingExporter(n) }

// Dial connects to a Jiffy controller group (connect(jiffyAddress)).
// List the group's endpoints with WithControllers; the client discovers
// which member leads and re-homes automatically when leadership moves.
// ctx bounds the dial and leader discovery only; the connection
// outlives it.
func Dial(ctx context.Context, opts ...Option) (*Client, error) {
	return client.Dial(ctx, opts...)
}

// MustPath builds a Path from components, panicking on invalid input;
// convenient for literals in examples and tests.
func MustPath(components ...string) Path { return core.MustPath(components...) }

// A re-export of the lease-renewal sweet spot from the paper (§6.6).
const DefaultLeaseDuration = time.Second
