package hierarchy

import (
	"testing"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/ds"
)

func TestQuotaOwners(t *testing.T) {
	h := buildPaperDAG(t)
	set := func(name string, q core.Quota) {
		n, ok := h.Lookup(name)
		if !ok {
			t.Fatalf("node %q missing", name)
		}
		n.Quota = q
	}
	// Memory budgets on the root and on T5; a rate-only quota on T3
	// must NOT appear as a memory owner.
	set("job", core.Quota{MemoryBytes: 1 << 30})
	set("T5", core.Quota{MemoryBytes: 1 << 20})
	set("T3", core.Quota{OpsPerSec: 10})

	n, _ := h.Lookup("T8")
	owners := n.QuotaOwners()
	names := map[string]bool{}
	for _, o := range owners {
		names[o.Name] = true
	}
	if len(owners) != 2 || !names["job"] || !names["T5"] {
		t.Fatalf("QuotaOwners(T8) = %v, want {job, T5}", names)
	}

	// A node with its own memory quota is its own first constraint.
	n5, _ := h.Lookup("T5")
	owners = n5.QuotaOwners()
	if len(owners) != 2 || owners[0].Name != "T5" {
		t.Fatalf("QuotaOwners(T5) = %v, want [T5, job]", owners)
	}
}

func TestSubtreePhysicalBlocks(t *testing.T) {
	h := buildPaperDAG(t)
	entry := func(id core.BlockID, replicas int) ds.PartitionEntry {
		e := ds.PartitionEntry{Info: core.BlockInfo{ID: id, Server: "s0"}}
		if replicas > 1 {
			for r := 0; r < replicas; r++ {
				e.Chain = append(e.Chain, core.BlockInfo{ID: id, Server: "s0"})
			}
		}
		return e
	}
	give := func(name string, blocks ...ds.PartitionEntry) {
		n, ok := h.Lookup(name)
		if !ok {
			t.Fatalf("node %q missing", name)
		}
		n.Map.Blocks = blocks
	}
	give("T5", entry(1, 1), entry(2, 2)) // 1 + 2 replicas
	give("T7", entry(3, 3))              // 3 replicas, under both T5 and T3
	give("T8", entry(4, 1))              // leaf under T7

	cases := []struct {
		node string
		want int
	}{
		{"T8", 1},
		{"T7", 4}, // its own 3 + T8's 1
		{"T5", 7}, // 3 local + T7 subtree 4
		{"T3", 4}, // T7 subtree reached through the extra-parent edge
		{"job", 7},
	}
	for _, tc := range cases {
		n, _ := h.Lookup(tc.node)
		if got := n.SubtreePhysicalBlocks(); got != tc.want {
			t.Errorf("SubtreePhysicalBlocks(%s) = %d, want %d", tc.node, got, tc.want)
		}
	}
}

// TestQuotaSurvivesRenew pins that lease renewal does not disturb a
// node's quota — quotas are released only on reclaim.
func TestQuotaSurvivesRenew(t *testing.T) {
	h := buildPaperDAG(t)
	n, _ := h.Lookup("T5")
	n.Quota = core.Quota{OpsPerSec: 5}
	if _, err := h.Renew("job/T1/T5", t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if n.Quota.IsZero() {
		t.Fatal("renew cleared the quota")
	}
}
