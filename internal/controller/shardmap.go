package controller

import (
	"fmt"
	"sync"

	"jiffy/internal/core"
	"jiffy/internal/hierarchy"
)

// Shard map (§4.2.1 scaling). Controller metadata is partitioned into
// shards: jobs (and with them their hierarchy subtrees and partition
// maps) are hashed across N shard workers, each with its own lock
// domain, so control operations for different jobs proceed in
// parallel. Alongside the job table each shard keeps a block/chain
// index keyed by memory-server address: the set of nodes that
// currently place at least one chain member on that server. Chain
// repair consults the index instead of walking every job, making a
// server death O(affected entries) rather than O(total metadata).
//
// The index follows every node image a member installs: indexNodeLocked
// (apply.go) refreshes it, called by the leader's commitNodeLocked and
// by a standby's node-upsert apply alike, so repair finds the same
// nodes on every member.

// shard owns a disjoint subset of jobs.
type shard struct {
	mu   sync.Mutex
	jobs map[core.JobID]*hierarchy.Hierarchy

	// byServer maps a memory-server address to the nodes keeping at
	// least one live chain member there (and each node's owning job).
	byServer map[string]map[*hierarchy.Node]core.JobID
	// nodeServers is the reverse direction: the server set a node was
	// last indexed under, so reindexing can drop stale entries first.
	nodeServers map[*hierarchy.Node][]string
}

func newShard() *shard {
	return &shard{
		jobs:        make(map[core.JobID]*hierarchy.Hierarchy),
		byServer:    make(map[string]map[*hierarchy.Node]core.JobID),
		nodeServers: make(map[*hierarchy.Node][]string),
	}
}

// job returns the hierarchy of job. Caller holds the shard lock.
func (sh *shard) job(job core.JobID) (*hierarchy.Hierarchy, error) {
	h, ok := sh.jobs[job]
	if !ok {
		return nil, fmt.Errorf("controller: job %q: %w", job, core.ErrNotFound)
	}
	return h, nil
}

// reindexNodeLocked recomputes the server index entries for one node.
// Caller holds the shard lock.
func (sh *shard) reindexNodeLocked(job core.JobID, n *hierarchy.Node) {
	sh.dropNodeIndexLocked(n)
	seen := make(map[string]bool)
	for _, e := range n.Map.Blocks {
		if e.Lost {
			continue
		}
		for _, info := range e.Replicas() {
			if seen[info.Server] {
				continue
			}
			seen[info.Server] = true
			set := sh.byServer[info.Server]
			if set == nil {
				set = make(map[*hierarchy.Node]core.JobID)
				sh.byServer[info.Server] = set
			}
			set[n] = job
		}
	}
	if len(seen) == 0 {
		return
	}
	servers := make([]string, 0, len(seen))
	for addr := range seen {
		servers = append(servers, addr)
	}
	sh.nodeServers[n] = servers
}

// dropNodeIndexLocked removes a node from the server index. Caller
// holds the shard lock.
func (sh *shard) dropNodeIndexLocked(n *hierarchy.Node) {
	for _, addr := range sh.nodeServers[n] {
		if set := sh.byServer[addr]; set != nil {
			delete(set, n)
			if len(set) == 0 {
				delete(sh.byServer, addr)
			}
		}
	}
	delete(sh.nodeServers, n)
}

// dropJobIndexLocked removes every node of a job from the server
// index. Caller holds the shard lock.
func (sh *shard) dropJobIndexLocked(h *hierarchy.Hierarchy) {
	h.Walk(func(n *hierarchy.Node) bool {
		sh.dropNodeIndexLocked(n)
		return true
	})
}

// indexedNodesLocked returns the nodes with a chain member on addr.
// Caller holds the shard lock.
func (sh *shard) indexedNodesLocked(addr string) []*hierarchy.Node {
	set := sh.byServer[addr]
	if len(set) == 0 {
		return nil
	}
	nodes := make([]*hierarchy.Node, 0, len(set))
	for n := range set {
		nodes = append(nodes, n)
	}
	return nodes
}
