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
	"slices"
	"strings"
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
	// none). Only a job root's rate dimensions are pushed to the memory
	// servers for hot-path admission; a quota below the root sets no
	// rate. The memory dimension bounds the physical blocks of this
	// node's subtree, enforced by the controller at allocation time, so
	// an allocation must fit every ancestor's budget (see QuotaOwners).
	Quota core.Quota
}

// Parents returns the node's parent set, the canonical parent first.
// The slice is the node's own: read it, do not modify it.
func (n *Node) Parents() []*Node { return n.parents }

// CanonicalPath returns one valid path for the node: job root through
// first parents. It measures the path first and builds it in one
// allocation.
func (n *Node) CanonicalPath() core.Path {
	if len(n.parents) == 0 {
		return core.Path(n.Name)
	}
	size := len(n.Name)
	for p := n; len(p.parents) > 0; p = p.parents[0] {
		size += len(core.PathSep) + len(p.parents[0].Name)
	}
	var b strings.Builder
	b.Grow(size)
	n.writeCanonical(&b)
	return core.Path(b.String())
}

// writeCanonical writes CanonicalPath's components to b, root first.
func (n *Node) writeCanonical(b *strings.Builder) {
	if len(n.parents) > 0 {
		n.parents[0].writeCanonical(b)
		b.WriteString(core.PathSep)
	}
	b.WriteString(n.Name)
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
	if path == "" {
		return nil, fmt.Errorf("hierarchy: empty path: %w", core.ErrNotFound)
	}
	// Walk the string component by component; splitting it would
	// allocate a slice per call.
	first, rest, more := strings.Cut(string(path), core.PathSep)
	if first != h.root.Name {
		return nil, fmt.Errorf("hierarchy: path %q is not rooted at job %q: %w",
			path, h.root.Name, core.ErrNotFound)
	}
	cur := h.root
	for more {
		var c string
		c, rest, more = strings.Cut(rest, core.PathSep)
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

// Create adds a node at path: it resolves the path's parent and each
// of extraParents (the additional DAG edges) once and Adds the node
// under them.
func (h *Hierarchy) Create(path core.Path, extraParents []core.Path,
	dsType core.DSType, leaseDuration time.Duration, now time.Time) (*Node, error) {

	if !path.Valid() {
		return nil, fmt.Errorf("hierarchy: invalid path %q", path)
	}
	parent, err := h.Resolve(path.Parent())
	if err != nil {
		return nil, err
	}
	var buf [4]*Node
	parents := append(buf[:0], parent)
	for _, pp := range extraParents {
		p, err := h.Resolve(pp)
		if err != nil {
			return nil, err
		}
		parents = append(parents, p)
	}
	return h.Add(path.Base(), parents, dsType, leaseDuration, now)
}

// Add creates the node name under parents, which must be nodes of this
// hierarchy: parents[0] is its canonical parent, the rest are DAG
// edges, and a parent listed twice is linked once. The node inherits
// the renewal time now. The name must be a valid path component that
// no node of the job holds yet. Add keeps no reference to parents.
func (h *Hierarchy) Add(name string, parents []*Node,
	dsType core.DSType, leaseDuration time.Duration, now time.Time) (*Node, error) {

	if err := core.ValidateComponent(name); err != nil {
		return nil, fmt.Errorf("hierarchy: node name: %w", err)
	}
	if _, exists := h.byName[name]; exists {
		return nil, fmt.Errorf("hierarchy: node %q: %w", name, core.ErrExists)
	}
	if len(parents) == 0 {
		return nil, fmt.Errorf("hierarchy: node %q has no parent", name)
	}
	own := make([]*Node, 0, len(parents))
	for _, p := range parents {
		if h.byName[p.Name] != p {
			return nil, fmt.Errorf("hierarchy: parent %q of %q is not in job %q: %w",
				p.Name, name, h.root.Name, core.ErrNotFound)
		}
		if !slices.Contains(own, p) {
			own = append(own, p)
		}
	}
	n := &Node{
		Name:          name,
		Job:           h.root.Job,
		parents:       own,
		LastRenewed:   now,
		LeaseDuration: leaseDuration,
		Type:          dsType,
		Map:           ds.PartitionMap{Type: dsType},
	}
	for _, p := range own {
		if p.children == nil {
			// A node's child index is made when its first child
			// arrives: most nodes are leaves.
			p.children = make(map[string]*Node, 1)
		}
		p.children[name] = n
	}
	h.byName[name] = n
	return n, nil
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

// Walk visits every node exactly once, in no particular order, stopping
// early if fn returns false. It ranges over the name index, which holds
// each node once however many parents it has, so it allocates nothing;
// a caller that needs an order sorts what it collects.
func (h *Hierarchy) Walk(fn func(n *Node) bool) {
	for _, n := range h.byName {
		if !fn(n) {
			return
		}
	}
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
