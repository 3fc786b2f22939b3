package alloc

import (
	"errors"
	"testing"
	"testing/quick"

	"jiffy/internal/core"
)

func TestRegisterAndAllocate(t *testing.T) {
	a := New()
	first, err := a.RegisterServer("s1", 10)
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Errorf("first ID = %v", first)
	}
	blocks, err := a.Allocate(3)
	if err != nil || len(blocks) != 3 {
		t.Fatalf("Allocate = %v, %v", blocks, err)
	}
	for _, b := range blocks {
		if b.Server != "s1" {
			t.Errorf("block on %q", b.Server)
		}
	}
	total, free, servers := a.Stats()
	if total != 10 || free != 7 || servers != 1 {
		t.Errorf("stats = %d/%d/%d", total, free, servers)
	}
}

func TestAllocateInsufficient(t *testing.T) {
	a := New()
	a.RegisterServer("s1", 2)
	if _, err := a.Allocate(3); !errors.Is(err, core.ErrNoCapacity) {
		t.Errorf("err = %v, want ErrNoCapacity", err)
	}
	// Failed allocation must not consume blocks.
	_, free, _ := a.Stats()
	if free != 2 {
		t.Errorf("free after failed alloc = %d", free)
	}
}

func TestAllocateZero(t *testing.T) {
	a := New()
	blocks, err := a.Allocate(0)
	if err != nil || blocks != nil {
		t.Errorf("Allocate(0) = %v, %v", blocks, err)
	}
}

func TestLoadBalancing(t *testing.T) {
	a := New()
	a.RegisterServer("s1", 10)
	a.RegisterServer("s2", 10)
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		blocks, err := a.Allocate(1)
		if err != nil {
			t.Fatal(err)
		}
		counts[blocks[0].Server]++
	}
	if counts["s1"] != 5 || counts["s2"] != 5 {
		t.Errorf("allocation imbalance: %v", counts)
	}
}

func TestFreeReturnsBlocks(t *testing.T) {
	a := New()
	a.RegisterServer("s1", 5)
	blocks, _ := a.Allocate(5)
	if _, err := a.Allocate(1); err == nil {
		t.Fatal("pool should be empty")
	}
	a.Free(blocks[:2])
	got, err := a.Allocate(2)
	if err != nil || len(got) != 2 {
		t.Fatalf("Allocate after free = %v, %v", got, err)
	}
}

func TestFreeToRemovedServerDropped(t *testing.T) {
	a := New()
	a.RegisterServer("s1", 5)
	blocks, _ := a.Allocate(2)
	a.RemoveServer("s1")
	a.Free(blocks)
	total, free, servers := a.Stats()
	if total != 0 || free != 0 || servers != 0 {
		t.Errorf("stats after remove = %d/%d/%d", total, free, servers)
	}
}

func TestReRegisterReplaces(t *testing.T) {
	a := New()
	a.RegisterServer("s1", 5)
	minted, _ := a.Allocate(2)
	mark, err := a.RegisterServer("s1", 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range minted {
		if b.ID >= mark {
			t.Errorf("mark %v not above %v, minted before re-registration", mark, b.ID)
		}
	}
	total, free, _ := a.Stats()
	if total != 8 || free != 8 {
		t.Errorf("stats after re-register = %d/%d", total, free)
	}
}

// TestReRegisterDoesNotOverCredit: blocks placed on a server's earlier
// registration died with it, so freeing them credits nothing.
func TestReRegisterDoesNotOverCredit(t *testing.T) {
	a := New()
	a.RegisterServer("s1", 2)
	old, _ := a.Allocate(2)
	a.RegisterServer("s1", 2)
	a.Free(old)
	if total, free, _ := a.Stats(); total != 2 || free != 2 {
		t.Errorf("stats after freeing the old registration's blocks = %d/%d, want 2/2", total, free)
	}
	if _, err := a.Allocate(4); !errors.Is(err, core.ErrNoCapacity) {
		t.Errorf("Allocate(4) on a 2-block server = %v, want ErrNoCapacity", err)
	}
}

func TestRegisterInvalid(t *testing.T) {
	a := New()
	if _, err := a.RegisterServer("s1", 0); err == nil {
		t.Error("zero-block registration accepted")
	}
}

func TestServers(t *testing.T) {
	a := New()
	a.RegisterServer("s2", 1)
	a.RegisterServer("s1", 1)
	got := a.Servers()
	if len(got) != 2 || got[0] != "s1" || got[1] != "s2" {
		t.Errorf("Servers = %v", got)
	}
}

// TestNoDoubleAllocation: across any alternation of allocs and frees,
// no block ID is handed out twice over the allocator's life, and the
// free count is the capacity minus what is held.
func TestNoDoubleAllocation(t *testing.T) {
	f := func(ops []uint8) bool {
		a := New()
		a.RegisterServer("s1", 16)
		a.RegisterServer("s2", 16)
		minted := map[core.BlockID]bool{}
		var held []core.BlockInfo
		for _, op := range ops {
			if op%2 == 0 {
				n := int(op%3) + 1
				blocks, err := a.Allocate(n)
				if err != nil {
					continue
				}
				for _, b := range blocks {
					if minted[b.ID] {
						return false
					}
					minted[b.ID] = true
					held = append(held, b)
				}
			} else if len(held) > 0 {
				b := held[len(held)-1]
				held = held[:len(held)-1]
				a.Free([]core.BlockInfo{b})
			}
		}
		_, free, _ := a.Stats()
		return free == 32-len(held)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
