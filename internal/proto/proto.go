// Package proto declares the control-plane RPC surface shared by the
// controller, memory servers and clients. Each method is declared once,
// as a typed descriptor — proto.Open = Method[OpenReq, OpenResp]{0x0008,
// "Open"} — that fixes its wire id, its metric/span name and its
// request/response pair; stubs (rpc.Invoke) and handler tables
// (rpc.Handle) take the descriptor, so they cannot mix two methods'
// messages. How a message body is encoded is not this package's
// business: internal/codec owns that. Data-plane operations use
// the compact binary codecs in internal/ds instead and are identified
// by the plain ids MethodDataOp, MethodDataOpBatch and MethodReplicate.
package proto

import (
	"time"

	"jiffy/internal/core"
	"jiffy/internal/ds"
)

// Info is the untyped half of a method declaration: the wire identifier
// and the stable name used for metric labels and span events.
type Info struct {
	ID   uint16
	Name string
}

// Method declares one control-plane RPC. The type parameters pair the
// method with its request and response messages, so a stub or a
// handler that mixes two methods' messages does not compile (see
// rpc.Invoke and rpc.Handle).
type Method[Req, Resp any] struct{ Info }

// methods lists every declared method, the data plane's three first.
var methods = []Info{
	{MethodDataOp, "DataOp"},
	{MethodReplicate, "Replicate"},
	{MethodDataOpBatch, "DataOpBatch"},
}

func declare[Req, Resp any](id uint16, name string) Method[Req, Resp] {
	methods = append(methods, Info{id, name})
	return Method[Req, Resp]{Info{id, name}}
}

// Methods returns every declared method.
func Methods() []Info { return methods }

// MethodName returns the human-readable name of a method identifier,
// or "" when unknown (callers fall back to the hex value).
func MethodName(id uint16) string {
	for _, m := range methods {
		if m.ID == id {
			return m.Name
		}
	}
	return ""
}

// Data-plane methods. Their bodies are the binary codecs of internal/ds,
// not a Req/Resp pair, and servers dispatch them ahead of the method
// table.
const (
	// MethodDataOp executes a data-plane op (the internal/ds request
	// codec, not the control codec).
	MethodDataOp uint16 = 0x0101
	// MethodReplicate applies a replicated mutation at a chain
	// successor. Its body is not a control message: a seq|gen prefix
	// followed by the data-plane request encoding (see
	// ds.AppendReplicateVec), answered with an empty response.
	MethodReplicate uint16 = 0x010d
	// MethodDataOpBatch executes many data-plane ops from one request
	// frame, replying with per-op results in one response frame (binary
	// codec in internal/ds, see EncodeBatchRequest).
	MethodDataOpBatch uint16 = 0x0110
)

// Controller methods.
var (
	// RegisterJob registers a job and creates its hierarchy root.
	RegisterJob = declare[RegisterJobReq, RegisterJobResp](0x0001, "RegisterJob")
	// DeregisterJob removes a job, releasing all its resources.
	DeregisterJob = declare[DeregisterJobReq, DeregisterJobResp](0x0002, "DeregisterJob")
	// CreatePrefix adds an address prefix (createAddrPrefix).
	CreatePrefix = declare[CreatePrefixReq, CreatePrefixResp](0x0003, "CreatePrefix")
	// CreateHierarchy builds the full hierarchy from a DAG
	// (createHierarchy).
	CreateHierarchy = declare[CreateHierarchyReq, CreateHierarchyResp](0x0004, "CreateHierarchy")
	// RemovePrefix explicitly reclaims a prefix and its blocks.
	RemovePrefix = declare[RemovePrefixReq, RemovePrefixResp](0x0005, "RemovePrefix")
	// RenewLease renews leases for one or more prefixes.
	RenewLease = declare[RenewLeaseReq, RenewLeaseResp](0x0006, "RenewLease")
	// LeaseInfo queries a prefix's lease state (getLeaseDuration).
	LeaseInfo = declare[LeaseInfoReq, LeaseInfoResp](0x0007, "LeaseInfo")
	// Open fetches a data structure's partition map and lease
	// duration (initDataStructure / handle acquisition).
	Open = declare[OpenReq, OpenResp](0x0008, "Open")
	// FlushPrefix persists a prefix's data to the external store.
	FlushPrefix = declare[FlushPrefixReq, FlushPrefixResp](0x0009, "FlushPrefix")
	// LoadPrefix loads a prefix's data back from the external
	// store.
	LoadPrefix = declare[LoadPrefixReq, LoadPrefixResp](0x000a, "LoadPrefix")
	// RegisterServer announces a memory server and its capacity.
	RegisterServer = declare[RegisterServerReq, RegisterServerResp](0x000b, "RegisterServer")
	// ScaleUp is the overload signal (Fig. 8 step 1); also used
	// by clients that hit ErrBlockFull before the proactive signal
	// lands.
	ScaleUp = declare[ScaleUpReq, ScaleUpResp](0x000c, "ScaleUp")
	// ScaleDown is the underload signal; the controller merges
	// and reclaims the block.
	ScaleDown = declare[ScaleDownReq, ScaleDownResp](0x000d, "ScaleDown")
	// ControllerStats reports controller-wide statistics.
	ControllerStats = declare[ControllerStatsReq, ControllerStatsResp](0x000e, "ControllerStats")
	// ListPrefixes lists the address hierarchy of a job.
	ListPrefixes = declare[ListPrefixesReq, ListPrefixesResp](0x000f, "ListPrefixes")
	// SaveState checkpoints controller metadata to the
	// persistent store (primary-backup building block).
	SaveState = declare[SaveStateReq, SaveStateResp](0x0010, "SaveState")
	// Heartbeat is a memory server's periodic liveness beat; the
	// failure detector marks servers dead after a suspicion window
	// without one.
	Heartbeat = declare[HeartbeatReq, HeartbeatResp](0x0011, "Heartbeat")
	// ReportFailure reports write-path evidence of a dead peer (a
	// chain head that could not reach its successor) so repair triggers
	// without waiting out the suspicion window.
	ReportFailure = declare[ReportFailureReq, ReportFailureResp](0x0012, "ReportFailure")
	// DrainServer gracefully migrates every block off a server
	// before decommission, using the chain-repair machinery.
	DrainServer = declare[DrainServerReq, DrainServerResp](0x0013, "DrainServer")
	// SetQuota registers a resource quota on a prefix. Rate
	// dimensions on a job root fan out to every memory server for
	// hot-path admission; the memory dimension is enforced by the
	// controller at allocation time.
	SetQuota = declare[SetQuotaReq, SetQuotaResp](0x0014, "SetQuota")
	// ReportTier records a block's tier transition (demotion to /
	// promotion from the persist tier) in the controller's metadata, so
	// a tiered block can be recovered if its chain later dies.
	ReportTier = declare[ReportTierReq, ReportTierResp](0x0015, "ReportTier")
	// CtrlReplicate streams a batch of metadata op-log entries
	// from the active controller to a standby. Standbys apply entries
	// in sequence order; a gap triggers a fresh bootstrap.
	CtrlReplicate = declare[CtrlReplicateReq, CtrlReplicateResp](0x0016, "CtrlReplicate")
	// CtrlBootstrap installs a full metadata snapshot on a
	// standby, resetting whatever state it held. The active controller
	// sends it when a standby joins or falls off the replay window.
	CtrlBootstrap = declare[CtrlBootstrapReq, CtrlBootstrapResp](0x0017, "CtrlBootstrap")
	// CtrlRole reports a controller's view of the replicated
	// group: whether it is the leader, who it believes leads, and the
	// leadership generation. Clients use it to seed their leader cache.
	CtrlRole = declare[CtrlRoleReq, CtrlRoleResp](0x0018, "CtrlRole")
	// CtrlPromote forces a standby to assume leadership
	// immediately (operator/test override of the suspicion window).
	CtrlPromote = declare[CtrlPromoteReq, CtrlPromoteResp](0x0019, "CtrlPromote")
)

// Memory-server control methods. Ids 0x0105, 0x0106, 0x010c, 0x010f
// and 0x0113 belonged to the retired MoveSlots, ImportEntries,
// SetOwnedSlots, RestoreBlock and ExportSlots and are never reused.
var (
	// CreateBlock installs a partition in a block.
	CreateBlock = declare[CreateBlockReq, CreateBlockResp](0x0102, "CreateBlock")
	// DeleteBlock frees a block's partition.
	DeleteBlock = declare[DeleteBlockReq, DeleteBlockResp](0x0103, "DeleteBlock")
	// SetNext links a queue segment to its successor and seals it.
	SetNext = declare[SetNextReq, SetNextResp](0x0104, "SetNext")
	// FlushBlock writes a block to the persistent store as a JTO1
	// object (internal/tier).
	FlushBlock = declare[FlushBlockReq, FlushBlockResp](0x0107, "FlushBlock")
	// LoadBlock restores a block from a JTO1 object in the
	// persistent store, or from a live member's snapshot the server
	// pulls itself.
	LoadBlock = declare[LoadBlockReq, LoadBlockResp](0x0108, "LoadBlock")
	// Subscribe registers for notifications on a set of blocks.
	Subscribe = declare[SubscribeReq, SubscribeResp](0x0109, "Subscribe")
	// Unsubscribe removes a subscription.
	Unsubscribe = declare[UnsubscribeReq, UnsubscribeResp](0x010a, "Unsubscribe")
	// ServerStats reports server statistics.
	ServerStats = declare[ServerStatsReq, ServerStatsResp](0x010b, "ServerStats")
	// SnapshotBlock returns a block's serialized partition state: the
	// server-to-server half of a LoadBlock from a live member.
	SnapshotBlock = declare[SnapshotBlockReq, SnapshotBlockResp](0x010e, "SnapshotBlock")
	// UpdateChain replaces a block's replication chain in place
	// (chain repair: survivors must learn the spliced chain so writes
	// propagate to the replacement, not the dead member).
	UpdateChain = declare[UpdateChainReq, UpdateChainResp](0x0111, "UpdateChain")
	// SetTenantQuota installs a tenant's rate quota on a memory
	// server's admission gate (controller-to-server push).
	SetTenantQuota = declare[SetTenantQuotaReq, SetTenantQuotaResp](0x0112, "SetTenantQuota")
	// SlotOwnership changes which slots a KV shard owns: a sequenced
	// mutation (OpOwnSlots, OpDisownSlots) that the server applies
	// like SetNext, so sent to a chain's head it changes every member
	// at the same seq. A split or merge is these steps around a fill
	// (controller/scale.go).
	SlotOwnership = declare[SlotOwnershipReq, SlotOwnershipResp](0x0114, "SlotOwnership")
)

// --- controller messages ----------------------------------------------------

// RegisterJobReq registers jobID; Prefix optionally names a pre-known
// execution DAG (see CreateHierarchyReq for the structure).
type RegisterJobReq struct {
	Job core.JobID
}

// RegisterJobResp acknowledges registration.
type RegisterJobResp struct{}

// DeregisterJobReq removes the job and all its prefixes.
type DeregisterJobReq struct {
	Job core.JobID
}

// DeregisterJobResp acknowledges removal.
type DeregisterJobResp struct{}

// CreatePrefixReq creates one address prefix (createAddrPrefix §4.1).
type CreatePrefixReq struct {
	// Path is the new prefix (its first component is the job).
	Path core.Path
	// Parents are additional parent prefixes beyond the path parent
	// (the DAG edges; e.g. T5 depends on both T1 and T2).
	Parents []core.Path
	// Type attaches a data structure; DSNone creates a bare interior
	// node.
	Type core.DSType
	// InitialBlocks pre-allocates capacity (optionalArgs in the paper).
	InitialBlocks int
	// MaxBlocks bounds the structure's size in blocks; the controller
	// refuses to scale beyond it and writers see ErrBlockFull — the
	// generalization of the paper's maxQueueLength bound (§5.2). Zero
	// means unbounded.
	MaxBlocks int
	// LeaseDuration overrides the system default when positive.
	LeaseDuration time.Duration
}

// CreatePrefixResp returns the initial partition map.
type CreatePrefixResp struct {
	Map           ds.PartitionMap
	LeaseDuration time.Duration
}

// DagNode is one task in an execution DAG.
type DagNode struct {
	Name    string
	Parents []string
	// Type and InitialBlocks configure the node's data structure.
	Type          core.DSType
	InitialBlocks int
	// MaxBlocks bounds the structure (0 = unbounded).
	MaxBlocks int
}

// CreateHierarchyReq builds a job's whole hierarchy from its execution
// plan (createHierarchy §4.1).
type CreateHierarchyReq struct {
	Job   core.JobID
	Nodes []DagNode
	// LeaseDuration applies to every node when positive.
	LeaseDuration time.Duration
}

// CreateHierarchyResp acknowledges hierarchy creation.
type CreateHierarchyResp struct{}

// RemovePrefixReq explicitly reclaims a prefix.
type RemovePrefixReq struct {
	Path core.Path
}

// RemovePrefixResp acknowledges removal.
type RemovePrefixResp struct{}

// RenewLeaseReq renews leases for the given prefixes; renewal
// propagates to ancestors and descendants (§3.2).
type RenewLeaseReq struct {
	Paths []core.Path
}

// RenewLeaseResp reports how many hierarchy nodes were touched.
type RenewLeaseResp struct {
	Renewed int
}

// LeaseInfoReq queries lease state.
type LeaseInfoReq struct {
	Path core.Path
}

// LeaseInfoResp carries the prefix's lease configuration and state.
type LeaseInfoResp struct {
	Duration    time.Duration
	LastRenewed time.Time
}

// OpenReq fetches the current partition map for a prefix.
type OpenReq struct {
	Path core.Path
}

// OpenResp returns the map and the prefix's lease duration.
type OpenResp struct {
	Map           ds.PartitionMap
	LeaseDuration time.Duration
	// Probation lists servers the controller currently holds in
	// gray-failure probation: alive but persistently slow. Clients use
	// it to skip them when ranking hedge targets.
	Probation []string
}

// FlushPrefixReq persists the prefix's blocks under ExternalPath.
type FlushPrefixReq struct {
	Path         core.Path
	ExternalPath string
}

// FlushPrefixResp reports the number of blocks flushed.
type FlushPrefixResp struct {
	Blocks int
}

// LoadPrefixReq restores the prefix's blocks from ExternalPath.
type LoadPrefixReq struct {
	Path         core.Path
	ExternalPath string
}

// LoadPrefixResp returns the refreshed partition map.
type LoadPrefixResp struct {
	Map ds.PartitionMap
}

// SaveStateReq checkpoints the controller's metadata under Key.
type SaveStateReq struct {
	Key string
}

// SaveStateResp acknowledges the checkpoint.
type SaveStateResp struct{}

// RegisterServerReq announces a memory server contributing NumBlocks
// blocks of the system block size.
type RegisterServerReq struct {
	Addr      string
	NumBlocks int
}

// RegisterServerResp returns the server's registration mark: every
// block later placed on this registration gets an ID at or above
// FirstID, and every lower ID belongs to an earlier registration. IDs
// are minted per placement, never reserved.
type RegisterServerResp struct {
	FirstID core.BlockID
}

// ScaleUpReq signals that a block crossed the high usage threshold
// (server-initiated, Fig. 8) or rejected a write with ErrBlockFull
// (client-initiated fallback).
type ScaleUpReq struct {
	Path  core.Path
	Block core.BlockID
}

// ScaleUpResp returns the refreshed partition map (epoch advanced if
// the controller scaled the structure; unchanged if the signal was
// stale).
type ScaleUpResp struct {
	Map ds.PartitionMap
}

// ScaleDownReq signals that a block dropped below the low usage
// threshold and is a merge/reclaim candidate.
type ScaleDownReq struct {
	Path  core.Path
	Block core.BlockID
}

// ScaleDownResp returns the refreshed partition map.
type ScaleDownResp struct {
	Map ds.PartitionMap
}

// ControllerStatsReq requests controller statistics.
type ControllerStatsReq struct{}

// ControllerStatsResp reports allocator and hierarchy statistics.
type ControllerStatsResp struct {
	TotalBlocks     int
	FreeBlocks      int
	AllocatedBlocks int
	Jobs            int
	Prefixes        int
	Servers         int
	// MetadataBytes approximates controller metadata footprint (the
	// §6.4 storage-overhead measurement).
	MetadataBytes int
	// DegradedServers lists members currently on gray-failure probation:
	// alive (still heartbeating, still serving their blocks) but excluded
	// from new allocation until probe-verified recovery.
	DegradedServers []string
}

// ListPrefixesReq lists a job's address hierarchy.
type ListPrefixesReq struct {
	Job core.JobID
}

// PrefixInfo describes one hierarchy node.
type PrefixInfo struct {
	Path        core.Path
	Type        core.DSType
	Blocks      int
	UsedBytes   int
	LastRenewed time.Time
}

// ListPrefixesResp returns the hierarchy nodes in depth-first order.
type ListPrefixesResp struct {
	Prefixes []PrefixInfo
}

// HeartbeatReq is a memory server's periodic liveness beat.
type HeartbeatReq struct {
	Addr string
}

// HeartbeatResp acknowledges the beat and tells the server the current
// cluster membership epoch (observability; bumped on every membership
// change).
type HeartbeatResp struct {
	Epoch uint64
}

// ReportFailureReq carries write-path evidence that Server is dead:
// Reporter could not reach it while forwarding on Block's chain.
type ReportFailureReq struct {
	Reporter string
	Server   string
	Block    core.BlockID
	// Degraded distinguishes fail-slow evidence from fail-stop: the
	// reported server is reachable but persistently slow (replication
	// forwards stalling past the configured threshold). The controller
	// probes it and, if it is alive, places it on probation instead of
	// declaring it dead.
	Degraded bool
}

// ReportFailureResp acknowledges the report. Repair runs
// asynchronously; the reporter just retries/fails its write as usual.
type ReportFailureResp struct{}

// ReportTierReq records a tier transition for one chain member of a
// block. Demoted=true: the member wrote its partition to the persist
// tier under Key with tiering generation Gen (the server blocks the
// transition on this report landing, so the controller's record is
// never behind reality when memory is released). Demoted=false: the
// member rehydrated; the controller clears its recorded key unless a
// newer generation has already superseded Gen.
type ReportTierReq struct {
	Server  string
	Block   core.BlockID
	Path    core.Path
	Key     string
	Gen     uint64
	Demoted bool
}

// ReportTierResp acknowledges the transition.
type ReportTierResp struct{}

// CtrlReplicateReq carries a contiguous batch of op-log entries from
// the active controller. Gen fences the stream: a standby that has
// observed a higher leadership generation rejects the batch with
// ErrNotLeader so a deposed leader demotes itself. FirstSeq is the
// sequence number of Ops[0]; entries are replOp values encoded by
// internal/codec (the op type lives in internal/controller). An empty Ops slice is a leadership heartbeat.
type CtrlReplicateReq struct {
	Gen      uint64
	Leader   string
	FirstSeq uint64
	Ops      [][]byte
}

// CtrlReplicateResp acknowledges application through AckedSeq.
type CtrlReplicateResp struct {
	AckedSeq uint64
}

// CtrlBootstrapReq installs a full metadata snapshot (the group image
// of internal/controller, encoded by the control codec) on a standby.
// Gen fences it like CtrlReplicateReq.
type CtrlBootstrapReq struct {
	Gen    uint64
	Leader string
	Image  []byte
}

// CtrlBootstrapResp acknowledges snapshot installation.
type CtrlBootstrapResp struct{}

// CtrlRoleReq asks a controller for its view of the replicated group.
type CtrlRoleReq struct{}

// CtrlRoleResp reports the controller's role. Leader is the address
// this controller believes is active (its own when IsLeader); Gen the
// leadership generation it has observed.
type CtrlRoleResp struct {
	Leader   string
	Gen      uint64
	IsLeader bool
}

// CtrlPromoteReq forces the receiving standby to take over leadership
// now, without waiting out the suspicion window.
type CtrlPromoteReq struct{}

// CtrlPromoteResp reports the generation the controller leads with.
type CtrlPromoteResp struct {
	Gen uint64
}

// DrainServerReq migrates every block off Addr so it can be
// decommissioned without data loss.
type DrainServerReq struct {
	Addr string
}

// DrainServerResp reports how many blocks were migrated.
type DrainServerResp struct {
	Migrated int
}

// --- memory-server messages ---------------------------------------------------

// CreateBlockReq installs a partition in block ID.
type CreateBlockReq struct {
	Block    core.BlockID
	Path     core.Path
	Type     core.DSType
	Capacity int
	NumSlots int
	// Slots are the initially owned KV slot ranges.
	Slots []ds.SlotRange
	// Chunk is the file chunk index / queue segment sequence number.
	Chunk int
	// Chain is the replication chain this block belongs to; empty or
	// single-entry means unreplicated.
	Chain core.ReplicaChain
}

// CreateBlockResp acknowledges creation.
type CreateBlockResp struct{}

// DeleteBlockReq frees the block.
type DeleteBlockReq struct {
	Block core.BlockID
}

// DeleteBlockResp acknowledges deletion.
type DeleteBlockResp struct{}

// SetNextReq links a queue segment to its successor and seals it.
type SetNextReq struct {
	Block core.BlockID
	Next  core.BlockInfo
}

// SetNextResp acknowledges the link.
type SetNextResp struct{}

// SlotOwnershipReq makes Block own Ranges, or with Own false disown
// them, also removing their pairs when Drop is set.
type SlotOwnershipReq struct {
	Block  core.BlockID
	Ranges []ds.SlotRange
	Own    bool
	Drop   bool
}

// SlotOwnershipResp acknowledges the change on every member.
type SlotOwnershipResp struct{}

// FlushBlockReq writes the block to the persistent store under Key as
// a JTO1 object. The block's data remains in memory (deletion is
// separate).
type FlushBlockReq struct {
	Block core.BlockID
	Key   string
}

// FlushBlockResp reports the object's size and its envelope identity,
// which a later LoadBlock of the object must name.
type FlushBlockResp struct {
	Bytes int
	Block core.BlockID
	Gen   uint64
}

// LoadBlockReq restores Block's partition from a source the server
// reads itself. A non-zero From names a live member, whose snapshot the
// server fetches with SnapshotBlock; with Slots set, only the pairs in
// those KV slots, which replace Block's pairs there without ownership
// (a split's or merge's fill). Otherwise the source is the JTO1 object
// at Key, refused unless its envelope carries the identity the caller's
// metadata recorded for it: WantBlock and WantGen.
type LoadBlockReq struct {
	Block     core.BlockID
	Key       string
	WantBlock core.BlockID
	WantGen   uint64
	From      core.BlockInfo
	Slots     []ds.SlotRange
}

// LoadBlockResp acknowledges the restore.
type LoadBlockResp struct{}

// SubscribeReq registers the calling connection for notifications on
// the given blocks and op types (ds.subscribe §4.1).
type SubscribeReq struct {
	Blocks []core.BlockID
	Ops    []core.OpType
}

// SubscribeResp returns the subscription ID carried by push frames.
type SubscribeResp struct {
	SubID uint64
}

// UnsubscribeReq removes a subscription.
type UnsubscribeReq struct {
	SubID uint64
}

// UnsubscribeResp acknowledges removal.
type UnsubscribeResp struct{}

// Notification is the push payload delivered to subscribers.
type Notification struct {
	Block core.BlockID
	Op    core.OpType
	// Data is the op's first argument (enqueued item, written key, ...).
	Data []byte
}

// ServerStatsReq requests server statistics.
type ServerStatsReq struct{}

// ServerStatsResp reports data-plane statistics.
type ServerStatsResp struct {
	Blocks    int
	UsedBytes int
	Capacity  int
	Ops       int64
}

// SnapshotBlockReq fetches a block's serialized partition state, or
// with Slots set a KV shard's pairs in those slots, owned or not
// (ds.KV.SnapshotSlots).
type SnapshotBlockReq struct {
	Block core.BlockID
	Slots []ds.SlotRange
}

// SnapshotBlockResp carries the snapshot.
type SnapshotBlockResp struct {
	Snapshot []byte
}

// UpdateChainReq replaces Block's replication chain (repair splice).
// Gen is the new chain generation — the controller's membership epoch
// at repair time, so every member of the spliced chain agrees on it.
// Every member of a generation must be handed the same Chain:
// replication hops do not carry the layout, each member forwards along
// its own copy.
// Seal instead fences the block against all further writes (reads keep
// serving, Chain/Gen are ignored): the drain-time barrier taken before
// a migration snapshot, so no acknowledged write can postdate it.
type UpdateChainReq struct {
	Block core.BlockID
	Chain core.ReplicaChain
	Gen   uint64
	Seal  bool
}

// UpdateChainResp acknowledges the chain update.
type UpdateChainResp struct{}

// SetQuotaReq registers Quota on the prefix at Path (its first
// component is the job). A zero quota clears the registration.
type SetQuotaReq struct {
	Path  core.Path
	Quota core.Quota
}

// SetQuotaResp acknowledges quota registration.
type SetQuotaResp struct{}

// SetTenantQuotaReq installs Tenant's rate quota on a memory server's
// admission gate. A zero quota removes the tenant's rate limits.
type SetTenantQuotaReq struct {
	Tenant string
	Quota  core.Quota
}

// SetTenantQuotaResp acknowledges installation.
type SetTenantQuotaResp struct{}
