package controller

import (
	"testing"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/hierarchy"
)

// TestDumpJobOrder: an image lists every node once, each after all of
// its parents, and in the same order on every dump, for a chain whose
// names sort before their parents' and a join whose parents sit in
// different subtrees.
func TestDumpJobOrder(t *testing.T) {
	now := time.Unix(0, 0)
	h := hierarchy.New("job", time.Minute, now)
	path := core.Path("job")
	for _, name := range []string{"t9", "t8", "t7", "t6", "t5", "t4", "t3", "t2", "t1"} {
		path = path.MustChild(name)
		if _, err := h.Create(path, nil, core.DSNone, time.Minute, now); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Create("job/b", nil, core.DSNone, time.Minute, now); err != nil {
		t.Fatal(err)
	}
	// a0 hangs under the chain's deepest node and under b.
	if _, err := h.Create(path.MustChild("a0"), []core.Path{"job/b"}, core.DSKV, time.Minute, now); err != nil {
		t.Fatal(err)
	}

	img := dumpJob("job", h)
	if len(img.Nodes) != h.Len() {
		t.Fatalf("image has %d nodes, hierarchy %d", len(img.Nodes), h.Len())
	}
	if img.Nodes[0].Name != h.Root().Name {
		t.Fatalf("image starts with %q, want the root", img.Nodes[0].Name)
	}
	at := make(map[string]int, len(img.Nodes))
	for i, n := range img.Nodes {
		if _, dup := at[n.Name]; dup {
			t.Fatalf("%q listed twice", n.Name)
		}
		for _, p := range n.Parents {
			if _, ok := at[p]; !ok {
				t.Errorf("%q listed before its parent %q", n.Name, p)
			}
		}
		at[n.Name] = i
	}
	again := dumpJob("job", h)
	for i := range img.Nodes {
		if again.Nodes[i].Name != img.Nodes[i].Name {
			t.Fatalf("second dump differs at %d: %q, first had %q", i, again.Nodes[i].Name, img.Nodes[i].Name)
		}
	}
}
