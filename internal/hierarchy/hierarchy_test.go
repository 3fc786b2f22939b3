package hierarchy

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/ds"
)

var t0 = time.Unix(1000, 0)

// buildPaperDAG reproduces the job from the paper's Fig. 3/4:
//
//	T1 T2 T3 T4      (roots)
//	T5 ← T1,T2       T6 ← T4
//	T7 ← T5,T3,T6
//	T8 ← T7          T9 ← T7
func buildPaperDAG(t *testing.T) *Hierarchy {
	t.Helper()
	h := New("job", time.Second, t0)
	mk := func(path core.Path, extra ...core.Path) {
		if _, err := h.Create(path, extra, core.DSFile, time.Second, t0); err != nil {
			t.Fatalf("create %q: %v", path, err)
		}
	}
	mk("job/T1")
	mk("job/T2")
	mk("job/T3")
	mk("job/T4")
	mk("job/T1/T5", "job/T2")
	mk("job/T4/T6")
	mk("job/T1/T5/T7", "job/T3", "job/T4/T6")
	mk("job/T1/T5/T7/T8")
	mk("job/T1/T5/T7/T9")
	return h
}

// TestResolveErrorClasses pins what Resolve answers for each kind of
// bad path: ErrNotFound, with a text naming the path or the missing
// child, an empty component included.
func TestResolveErrorClasses(t *testing.T) {
	h := buildPaperDAG(t)
	for _, tc := range []struct {
		path core.Path
		want string
	}{
		{"", `hierarchy: empty path: jiffy: not found`},
		{"other/T1", `hierarchy: path "other/T1" is not rooted at job "job": jiffy: not found`},
		{"/job/T1", `hierarchy: path "/job/T1" is not rooted at job "job": jiffy: not found`},
		{"job/T1/T9", `hierarchy: "T1" has no child "T9": jiffy: not found`},
		{"job/T1/", `hierarchy: "T1" has no child "": jiffy: not found`},
		{"job//T1", `hierarchy: "job" has no child "": jiffy: not found`},
	} {
		_, err := h.Resolve(tc.path)
		if !errors.Is(err, core.ErrNotFound) || err.Error() != tc.want {
			t.Errorf("Resolve(%q) = %v, want %q (ErrNotFound)", tc.path, err, tc.want)
		}
	}
	for _, p := range []core.Path{"job", "job/T1", "job/T1/T5/T7/T9"} {
		n, err := h.Resolve(p)
		if err != nil || n.Name != p.Base() {
			t.Errorf("Resolve(%q) = %v, %v, want node %q", p, n, err, p.Base())
		}
	}
}

func TestResolveMultiPath(t *testing.T) {
	h := buildPaperDAG(t)
	// T7 has four valid address prefixes (footnote 3 in the paper).
	paths := []core.Path{
		"job/T4/T6/T7",
		"job/T3/T7",
		"job/T2/T5/T7",
		"job/T1/T5/T7",
	}
	var first *Node
	for _, p := range paths {
		n, err := h.Resolve(p)
		if err != nil {
			t.Fatalf("resolve %q: %v", p, err)
		}
		if first == nil {
			first = n
		} else if n != first {
			t.Errorf("path %q resolved to a different node", p)
		}
	}
	if first.Name != "T7" {
		t.Errorf("resolved node = %q", first.Name)
	}
}

func TestResolveInvalidPaths(t *testing.T) {
	h := buildPaperDAG(t)
	for _, p := range []core.Path{
		"job/T9/T7",    // edge direction wrong
		"job/T1/T7",    // T7 is not a direct child of T1
		"otherjob/T1",  // wrong root
		"job/TX",       // unknown node
		"job/T1/T5/TX", // unknown leaf
	} {
		if _, err := h.Resolve(p); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("resolve %q = %v, want ErrNotFound", p, err)
		}
	}
}

func TestCreateDuplicate(t *testing.T) {
	h := buildPaperDAG(t)
	if _, err := h.Create("job/T1", nil, core.DSNone, time.Second, t0); !errors.Is(err, core.ErrExists) {
		t.Errorf("duplicate create = %v", err)
	}
	if _, err := h.Create("job/TX/TY", nil, core.DSNone, time.Second, t0); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("create under missing parent = %v", err)
	}
}

// TestRenewPropagation verifies the Fig. 5 rule: renewing T7 renews
// its direct parents (T3, T5, T6) and all descendants (T8, T9), but
// not grandparents (T1, T2, T4).
func TestRenewPropagation(t *testing.T) {
	h := buildPaperDAG(t)
	later := t0.Add(10 * time.Second)
	touched, err := h.Renew("job/T4/T6/T7", later)
	if err != nil {
		t.Fatal(err)
	}
	// T7 + parents {T3,T5,T6} + descendants {T8,T9} = 6 nodes.
	if touched != 6 {
		t.Errorf("touched = %d, want 6", touched)
	}
	renewed := map[string]bool{"T7": true, "T3": true, "T5": true, "T6": true, "T8": true, "T9": true}
	h.Walk(func(n *Node) bool {
		want := renewed[n.Name]
		got := n.LastRenewed.Equal(later)
		if n.Name != "job" && want != got {
			t.Errorf("node %s renewed=%v, want %v", n.Name, got, want)
		}
		return true
	})
}

func TestRenewMonotonic(t *testing.T) {
	h := buildPaperDAG(t)
	h.Renew("job/T1", t0.Add(10*time.Second))
	// A renewal with an older timestamp must not move timestamps back.
	h.Renew("job/T1", t0.Add(5*time.Second))
	n, _ := h.Resolve("job/T1")
	if !n.LastRenewed.Equal(t0.Add(10 * time.Second)) {
		t.Errorf("timestamp moved backwards: %v", n.LastRenewed)
	}
}

func TestExpired(t *testing.T) {
	h := buildPaperDAG(t)
	// Renew only T7's cluster; everything else expires.
	h.Renew("job/T1/T5/T7", t0.Add(5*time.Second))
	expired := h.Expired(t0.Add(6 * time.Second))
	names := map[string]bool{}
	for _, n := range expired {
		names[n.Name] = true
	}
	for _, want := range []string{"T1", "T2", "T4"} {
		if !names[want] {
			t.Errorf("%s should be expired", want)
		}
	}
	for _, live := range []string{"T3", "T5", "T6", "T7", "T8", "T9"} {
		if names[live] {
			t.Errorf("%s should be live", live)
		}
	}
}

func TestExpiredOrderIsBottomUp(t *testing.T) {
	h := New("job", time.Second, t0)
	h.Create("job/A", nil, core.DSNone, time.Second, t0)
	h.Create("job/A/B", nil, core.DSNone, time.Second, t0)
	h.Create("job/A/B/C", nil, core.DSNone, time.Second, t0)
	expired := h.Expired(t0.Add(time.Hour))
	pos := map[string]int{}
	for i, n := range expired {
		pos[n.Name] = i
	}
	if !(pos["C"] < pos["B"] && pos["B"] < pos["A"]) {
		t.Errorf("expiry order not bottom-up: %v", pos)
	}
	// Bottom-up removal succeeds.
	for _, n := range expired {
		if err := h.Remove(n.Name); err != nil {
			t.Errorf("remove %s: %v", n.Name, err)
		}
	}
	if h.Len() != 1 {
		t.Errorf("nodes left = %d, want 1 (root)", h.Len())
	}
}

func TestRemoveGuards(t *testing.T) {
	h := buildPaperDAG(t)
	if err := h.Remove("T5"); err == nil {
		t.Error("removing node with children should fail")
	}
	if err := h.Remove("job"); err == nil {
		t.Error("removing root should fail")
	}
	if err := h.Remove("nope"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("removing unknown = %v", err)
	}
	if err := h.Remove("T8"); err != nil {
		t.Errorf("removing leaf = %v", err)
	}
	if _, err := h.Resolve("job/T1/T5/T7/T8"); !errors.Is(err, core.ErrNotFound) {
		t.Error("removed node still resolvable")
	}
}

func TestWalkVisitsEachNodeOnce(t *testing.T) {
	h := buildPaperDAG(t)
	count := map[string]int{}
	h.Walk(func(n *Node) bool {
		count[n.Name]++
		return true
	})
	if len(count) != 10 { // root + T1..T9
		t.Errorf("visited %d distinct nodes, want 10", len(count))
	}
	for name, c := range count {
		if c != 1 {
			t.Errorf("node %s visited %d times", name, c)
		}
	}
	// Early stop.
	visits := 0
	h.Walk(func(n *Node) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Errorf("early stop visited %d nodes", visits)
	}
}

func TestCanonicalPath(t *testing.T) {
	h := buildPaperDAG(t)
	n, _ := h.Lookup("T7")
	p := n.CanonicalPath()
	if _, err := h.Resolve(p); err != nil {
		t.Errorf("canonical path %q does not resolve: %v", p, err)
	}
}

func TestMetadataBytes(t *testing.T) {
	h := buildPaperDAG(t)
	base := h.MetadataBytes()
	if base != 10*64 { // 10 tasks, no blocks yet
		t.Errorf("metadata = %d, want 640", base)
	}
	n, _ := h.Lookup("T5")
	n.Map.Blocks = append(n.Map.Blocks, ds.PartitionEntry{Info: core.BlockInfo{ID: 1}})
	if got := h.MetadataBytes(); got != base+8 {
		t.Errorf("metadata with 1 block = %d, want %d", got, base+8)
	}
}

// TestLeaseInvariantProperty: after renewing any node, that node's
// direct parents and all descendants are never older than it.
func TestLeaseInvariantProperty(t *testing.T) {
	f := func(renewSeq []uint8) bool {
		h := buildPaperDAG(t)
		names := []string{"T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9"}
		now := t0
		for _, r := range renewSeq {
			now = now.Add(time.Second)
			name := names[int(r)%len(names)]
			n, _ := h.Lookup(name)
			if _, err := h.Renew(n.CanonicalPath(), now); err != nil {
				return false
			}
			// Invariant check.
			for _, p := range n.Parents() {
				if p.LastRenewed.Before(n.LastRenewed) {
					return false
				}
			}
			ok := true
			var checkDown func(m *Node)
			checkDown = func(m *Node) {
				for _, c := range m.children {
					if c.LastRenewed.Before(n.LastRenewed) {
						ok = false
					}
					checkDown(c)
				}
			}
			checkDown(n)
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLargeHierarchyScale(t *testing.T) {
	// Unlike hardware page tables, the hierarchy supports arbitrary
	// DAG sizes (§3.1); sanity-check a 1000-task 3-stage job.
	h := New("big", time.Second, t0)
	for s := 0; s < 10; s++ {
		for i := 0; i < 100; i++ {
			name := fmt.Sprintf("s%d_t%d", s, i)
			var path core.Path
			var extra []core.Path
			if s == 0 {
				path = core.Path("big").MustChild(name)
			} else {
				parent := fmt.Sprintf("s%d_t%d", s-1, i)
				pn, _ := h.Lookup(parent)
				path = pn.CanonicalPath().MustChild(name)
				// Fan-in edge from a second upstream task.
				extra = []core.Path{}
				if i > 0 {
					pn2, _ := h.Lookup(fmt.Sprintf("s%d_t%d", s-1, i-1))
					extra = append(extra, pn2.CanonicalPath())
				}
			}
			if _, err := h.Create(path, extra, core.DSKV, time.Second, t0); err != nil {
				t.Fatalf("create %s: %v", name, err)
			}
		}
	}
	if h.Len() != 1001 {
		t.Fatalf("nodes = %d", h.Len())
	}
	// Renewing a final-stage task touches its whole downstream cone
	// plus direct parents — and completes fast.
	n, _ := h.Lookup("s9_t50")
	start := time.Now()
	if _, err := h.Renew(n.CanonicalPath(), t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("renew took %v", d)
	}
}

// TestAddRefuses: Add makes no node from an invalid or taken name, an
// empty parent list or a parent of another job, and links a parent
// listed twice once.
func TestAddRefuses(t *testing.T) {
	h := buildPaperDAG(t)
	root := h.Root()
	t1, _ := h.Lookup("T1")
	other := New("other", time.Second, t0)
	for _, tc := range []struct {
		name    string
		parents []*Node
		want    error
	}{
		{"", []*Node{root}, nil},
		{"a/b", []*Node{root}, nil},
		{"T1", []*Node{root}, core.ErrExists},
		{"job", []*Node{t1}, core.ErrExists},
		{"TX", nil, nil},
		{"TX", []*Node{other.Root()}, core.ErrNotFound},
		{"TX", []*Node{t1, other.Root()}, core.ErrNotFound},
	} {
		n, err := h.Add(tc.name, tc.parents, core.DSNone, time.Second, t0)
		if err == nil || tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("Add(%q, %d parents) = %v, want a refusal (%v)", tc.name, len(tc.parents), err, tc.want)
		}
		if n != nil {
			t.Errorf("Add(%q) returned a node with its refusal", tc.name)
		}
	}
	if h.Len() != 10 {
		t.Fatalf("refused Adds left %d nodes, want 10", h.Len())
	}
	if _, ok := other.Root().children["TX"]; ok || len(t1.children) != 1 {
		t.Errorf("a refused Add linked its parents: other %v, T1 %v", other.Root().children, t1.children)
	}
	t2, _ := h.Lookup("T2")
	n, err := h.Add("TX", []*Node{t1, t2, t1, t2}, core.DSNone, time.Second, t0)
	if err != nil {
		t.Fatal(err)
	}
	if ps := n.Parents(); len(ps) != 2 || ps[0] != t1 || ps[1] != t2 {
		t.Errorf("parents of TX = %v, want [T1 T2]", ps)
	}
	for _, p := range []core.Path{"job/T1/TX", "job/T2/TX"} {
		if got, err := h.Resolve(p); err != nil || got != n {
			t.Errorf("Resolve(%q) = %v, %v, want TX", p, got, err)
		}
	}
}

// TestLeafHasNoChildIndex: a node makes its child index when its first
// child arrives, and every walk treats a leaf without one as childless.
func TestLeafHasNoChildIndex(t *testing.T) {
	h := New("job", time.Second, t0)
	root := h.Root()
	if root.children != nil {
		t.Fatal("a new job root holds a child index")
	}
	// A job of a root alone.
	if _, err := h.Resolve("job/x"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Resolve under a childless root = %v, want ErrNotFound", err)
	}
	if n, err := h.Renew("job", t0.Add(time.Second)); err != nil || n != 1 {
		t.Errorf("Renew of a childless root = %d, %v, want 1 node", n, err)
	}
	if got := h.Expired(t0.Add(time.Hour)); len(got) != 0 {
		t.Errorf("Expired of a root alone = %v", got)
	}
	if got := root.SubtreePhysicalBlocks(); got != 0 {
		t.Errorf("SubtreePhysicalBlocks of a root alone = %d", got)
	}

	a, err := h.Add("a", []*Node{root}, core.DSKV, time.Second, t0)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := h.Add("leaf", []*Node{a, root}, core.DSKV, time.Second, t0)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.children != nil {
		t.Fatal("a leaf holds a child index")
	}
	leaf.Map.Blocks = []ds.PartitionEntry{{Chain: core.ReplicaChain{{ID: 1, Server: "s1"}, {ID: 2, Server: "s2"}}}}
	if _, err := h.Resolve("job/a/leaf/x"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("Resolve below a leaf = %v, want ErrNotFound", err)
	}
	if got, err := h.Resolve("job/leaf"); err != nil || got != leaf {
		t.Errorf("Resolve(job/leaf) = %v, %v", got, err)
	}
	if n, err := h.Renew("job/a/leaf", t0.Add(2*time.Second)); err != nil || n != 3 {
		t.Errorf("Renew of the leaf = %d, %v, want 3 nodes (it and its parents)", n, err)
	}
	if got := leaf.SubtreePhysicalBlocks(); got != 2 {
		t.Errorf("SubtreePhysicalBlocks(leaf) = %d, want 2", got)
	}
	if got := root.SubtreePhysicalBlocks(); got != 2 {
		t.Errorf("SubtreePhysicalBlocks(root) = %d, want 2 (the leaf counted once)", got)
	}
	visited := 0
	h.Walk(func(*Node) bool { visited++; return true })
	if visited != 3 {
		t.Errorf("Walk visited %d nodes, want 3", visited)
	}
	if got := h.Expired(t0.Add(time.Hour)); len(got) != 2 || got[0] != leaf {
		t.Errorf("Expired = %v, want the leaf, then a", got)
	}
	if err := h.Remove("leaf"); err != nil {
		t.Fatal(err)
	}
	if err := h.Remove("a"); err != nil {
		t.Errorf("removing a, whose child index is now empty: %v", err)
	}
	if _, err := h.Resolve("job/a"); !errors.Is(err, core.ErrNotFound) || h.Len() != 1 {
		t.Errorf("after removing both: Resolve(job/a) = %v, %d nodes", err, h.Len())
	}
}
