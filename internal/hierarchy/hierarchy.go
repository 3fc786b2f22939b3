// Package hierarchy implements Jiffy's hierarchical addressing (§3.1):
// a per-job "virtual" address tree that mirrors the job's execution
// DAG. Interior nodes correspond to tasks; each node carries the
// metadata for its address prefix — lease timestamps, the attached data
// structure's partition map, and access metadata. Because the hierarchy
// is a DAG (a task may depend on several upstream tasks), a node can be
// reached through multiple address paths, exactly like an inode linked
// from several directories.
//
// The package also implements the lease-propagation rule of §3.2:
// renewing a prefix renews the node, all its ancestors, and all its
// descendants, so one renewal message per running task keeps every
// dependency's data alive.
//
// A Hierarchy is not safe for concurrent use; the controller serializes
// access per shard (jobs are hash-partitioned across shards, §4.2.1).
package hierarchy

import (
	"fmt"
	"sort"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/ds"
)

// Node is one address prefix: a vertex of the job's hierarchy DAG.
type Node struct {
	// Name is the node's task name, unique within the job.
	Name string
	// Job owns the hierarchy this node belongs to.
	Job core.JobID

	parents  []*Node
	children map[string]*Node

	// LastRenewed is the lease timestamp (§3.2).
	LastRenewed time.Time
	// LeaseDuration is this prefix's lease period.
	LeaseDuration time.Duration

	// Type is the attached data structure (DSNone for bare interior
	// nodes).
	Type core.DSType
	// Map is the data structure's partition metadata (the
	// metadata-manager state of §4.2.1).
	Map ds.PartitionMap

	// Flushed marks prefixes whose data was written to the persistent
	// tier on lease expiry (§3.2: flush before reclaim, so late
	// consumers can load it back).
	Flushed bool
	// FlushKey is where the flushed data lives in the external store.
	FlushKey string

	// Quota is the resource envelope registered on this prefix (zero =
	// none). Rate dimensions set on a job root are pushed to the memory
	// servers for hot-path admission; the memory dimension bounds the
	// physical blocks of this node's subtree and is enforced by the
	// controller at allocation time. Descendants without a quota of
	// their own inherit the nearest ancestor's (see EffectiveQuota).
	Quota core.Quota
}

// Parents returns the node's parent set (copy).
func (n *Node) Parents() []*Node { return append([]*Node(nil), n.parents...) }

// Children returns the node's children sorted by name.
func (n *Node) Children() []*Node {
	out := make([]*Node, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CanonicalPath returns one valid path for the node: job root through
// first parents.
func (n *Node) CanonicalPath() core.Path {
	if len(n.parents) == 0 {
		return core.Path(n.Name)
	}
	return n.parents[0].CanonicalPath().MustChild(n.Name)
}

// Expired reports whether the node's lease has lapsed at time now.
func (n *Node) Expired(now time.Time) bool {
	return now.Sub(n.LastRenewed) > n.LeaseDuration
}

// Hierarchy is one job's address DAG.
type Hierarchy struct {
	root *Node
	// byName indexes nodes by task name; names are unique per job,
	// which is what makes multi-path addressing unambiguous.
	byName map[string]*Node
}

// New creates a hierarchy for job with the given root lease settings.
func New(job core.JobID, leaseDuration time.Duration, now time.Time) *Hierarchy {
	root := &Node{
		Name:          string(job),
		Job:           job,
		children:      make(map[string]*Node),
		LastRenewed:   now,
		LeaseDuration: leaseDuration,
	}
	return &Hierarchy{root: root, byName: map[string]*Node{string(job): root}}
}

// Root returns the job's root node.
func (h *Hierarchy) Root() *Node { return h.root }

// Len returns the number of nodes including the root.
func (h *Hierarchy) Len() int { return len(h.byName) }

// Resolve walks the path through the DAG, validating every edge, and
// returns the final node. Any of a node's multiple addresses resolves
// to the same node.
func (h *Hierarchy) Resolve(path core.Path) (*Node, error) {
	comps := path.Components()
	if len(comps) == 0 {
		return nil, fmt.Errorf("hierarchy: empty path: %w", core.ErrNotFound)
	}
	if comps[0] != h.root.Name {
		return nil, fmt.Errorf("hierarchy: path %q is not rooted at job %q: %w",
			path, h.root.Name, core.ErrNotFound)
	}
	cur := h.root
	for _, c := range comps[1:] {
		next, ok := cur.children[c]
		if !ok {
			return nil, fmt.Errorf("hierarchy: %q has no child %q: %w",
				cur.Name, c, core.ErrNotFound)
		}
		cur = next
	}
	return cur, nil
}

// Lookup finds a node by task name regardless of path.
func (h *Hierarchy) Lookup(name string) (*Node, bool) {
	n, ok := h.byName[name]
	return n, ok
}

// Create adds a node under the parent named by path's last-but-one
// component, plus any extraParents (the additional DAG edges). The new
// node inherits the renewal time now.
func (h *Hierarchy) Create(path core.Path, extraParents []core.Path,
	dsType core.DSType, leaseDuration time.Duration, now time.Time) (*Node, error) {

	if !path.Valid() {
		return nil, fmt.Errorf("hierarchy: invalid path %q", path)
	}
	name := path.Base()
	if _, exists := h.byName[name]; exists {
		return nil, fmt.Errorf("hierarchy: node %q: %w", name, core.ErrExists)
	}
	parent, err := h.Resolve(path.Parent())
	if err != nil {
		return nil, err
	}
	parents := []*Node{parent}
	for _, pp := range extraParents {
		p, err := h.Resolve(pp)
		if err != nil {
			return nil, err
		}
		if p != parent {
			parents = append(parents, p)
		}
	}
	n := &Node{
		Name:          name,
		Job:           h.root.Job,
		parents:       parents,
		children:      make(map[string]*Node),
		LastRenewed:   now,
		LeaseDuration: leaseDuration,
		Type:          dsType,
		Map:           ds.PartitionMap{Type: dsType},
	}
	for _, p := range parents {
		p.children[name] = n
	}
	h.byName[name] = n
	return n, nil
}

// AddEdge adds an extra parent edge to an existing node (dynamic query
// plans discover dependencies on the fly, §3.1). Rejects edges that
// would create a cycle.
func (h *Hierarchy) AddEdge(parentName, childName string) error {
	parent, ok := h.byName[parentName]
	if !ok {
		return fmt.Errorf("hierarchy: parent %q: %w", parentName, core.ErrNotFound)
	}
	child, ok := h.byName[childName]
	if !ok {
		return fmt.Errorf("hierarchy: child %q: %w", childName, core.ErrNotFound)
	}
	if parent == child || h.reachable(child, parent) {
		return fmt.Errorf("hierarchy: edge %s→%s would create a cycle", parentName, childName)
	}
	if _, dup := parent.children[childName]; dup {
		return nil // edge already present
	}
	parent.children[childName] = child
	child.parents = append(child.parents, parent)
	return nil
}

// reachable reports whether `to` is reachable from `from` downwards.
func (h *Hierarchy) reachable(from, to *Node) bool {
	if from == to {
		return true
	}
	for _, c := range from.children {
		if h.reachable(c, to) {
			return true
		}
	}
	return false
}

// Renew implements the §3.2 propagation rule, exactly as the paper's
// Fig. 5 example specifies: refresh the lease timestamp of the
// addressed node, its direct parents (the tasks whose intermediate
// data it consumes), and all of its descendants (the tasks that will
// consume its data). Grandparents are deliberately not renewed — their
// data has already been consumed by the renewing task's inputs (in
// Fig. 5, renewing T7 renews T3/T5/T6 and T8/T9 but not T1/T2/T4).
// Returns the number of nodes touched.
func (h *Hierarchy) Renew(path core.Path, now time.Time) (int, error) {
	n, err := h.Resolve(path)
	if err != nil {
		return 0, err
	}
	touched := make(map[*Node]struct{})
	touched[n] = struct{}{}
	for _, p := range n.parents {
		touched[p] = struct{}{}
	}
	markDown(n, touched)
	for t := range touched {
		if now.After(t.LastRenewed) {
			t.LastRenewed = now
		}
	}
	return len(touched), nil
}

func markDown(n *Node, set map[*Node]struct{}) {
	set[n] = struct{}{}
	for _, c := range n.children {
		if _, seen := set[c]; !seen {
			markDown(c, set)
		}
	}
}

// Expired returns the nodes (excluding the root) whose leases have
// lapsed at now, in an order safe for bottom-up removal (descendants
// before ancestors).
func (h *Hierarchy) Expired(now time.Time) []*Node {
	var out []*Node
	seen := make(map[*Node]struct{})
	var visit func(n *Node)
	visit = func(n *Node) {
		if _, dup := seen[n]; dup {
			return
		}
		seen[n] = struct{}{}
		for _, c := range n.children {
			visit(c)
		}
		if n != h.root && n.Expired(now) {
			out = append(out, n)
		}
	}
	visit(h.root)
	return out
}

// Remove detaches a node from the hierarchy. Nodes with live children
// are refused (reclaim bottom-up).
func (h *Hierarchy) Remove(name string) error {
	n, ok := h.byName[name]
	if !ok {
		return fmt.Errorf("hierarchy: node %q: %w", name, core.ErrNotFound)
	}
	if n == h.root {
		return fmt.Errorf("hierarchy: cannot remove root")
	}
	if len(n.children) > 0 {
		return fmt.Errorf("hierarchy: node %q still has %d children", name, len(n.children))
	}
	for _, p := range n.parents {
		delete(p.children, name)
	}
	delete(h.byName, name)
	return nil
}

// Walk visits every node exactly once in depth-first order from the
// root, stopping early if fn returns false.
func (h *Hierarchy) Walk(fn func(n *Node) bool) {
	seen := make(map[*Node]struct{})
	var visit func(n *Node) bool
	visit = func(n *Node) bool {
		if _, dup := seen[n]; dup {
			return true
		}
		seen[n] = struct{}{}
		if !fn(n) {
			return false
		}
		for _, c := range n.Children() {
			if !visit(c) {
				return false
			}
		}
		return true
	}
	visit(h.root)
}

// EffectiveQuota resolves the quota governing n: its own if set,
// otherwise the nearest ancestor's (breadth-first up the parent edges,
// so in a DAG the closest quota-bearing ancestor wins; ties resolve to
// the first parent edge, which is the creation-order parent). Returns
// the zero quota when no ancestor carries one.
func (n *Node) EffectiveQuota() core.Quota {
	level := []*Node{n}
	seen := map[*Node]struct{}{n: {}}
	for len(level) > 0 {
		var next []*Node
		for _, cur := range level {
			if !cur.Quota.IsZero() {
				return cur.Quota
			}
			for _, p := range cur.parents {
				if _, dup := seen[p]; !dup {
					seen[p] = struct{}{}
					next = append(next, p)
				}
			}
		}
		level = next
	}
	return core.Quota{}
}

// QuotaOwners returns every node whose memory quota constrains n: n
// itself and all its ancestors that carry MemoryBytes > 0. An
// allocation under n must fit within each owner's subtree budget.
func (n *Node) QuotaOwners() []*Node {
	var owners []*Node
	seen := map[*Node]struct{}{}
	var up func(cur *Node)
	up = func(cur *Node) {
		if _, dup := seen[cur]; dup {
			return
		}
		seen[cur] = struct{}{}
		if cur.Quota.MemoryBytes > 0 {
			owners = append(owners, cur)
		}
		for _, p := range cur.parents {
			up(p)
		}
	}
	up(n)
	return owners
}

// SubtreePhysicalBlocks counts the physical blocks (every chain
// replica) allocated in n's subtree — the unit the memory quota is
// charged in.
func (n *Node) SubtreePhysicalBlocks() int {
	total := 0
	seen := map[*Node]struct{}{}
	var down func(cur *Node)
	down = func(cur *Node) {
		if _, dup := seen[cur]; dup {
			return
		}
		seen[cur] = struct{}{}
		for _, e := range cur.Map.Blocks {
			total += len(e.Replicas())
		}
		for _, c := range cur.children {
			down(c)
		}
	}
	down(n)
	return total
}

// MetadataBytes estimates the controller metadata footprint of this
// hierarchy, following the §6.4 accounting: a fixed per-task cost plus
// a per-block cost. It sums the name index, which holds every node
// exactly once, so a stats call allocates nothing.
func (h *Hierarchy) MetadataBytes() int {
	const perTask = 64
	const perBlock = 8
	total := 0
	for _, n := range h.byName {
		total += perTask + perBlock*len(n.Map.Blocks)
	}
	return total
}
