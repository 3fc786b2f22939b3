package jiffy

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/ds"
)

// counterPartition is a demonstration custom data structure: a set of
// named monotonic counters. It implements ds.Partition — the same
// internal block API the built-ins use (Fig. 6 of the paper) — and is
// registered once per process via ds.Register.
type counterPartition struct {
	mu       sync.Mutex
	counters map[string]int64
	bytes    int
	cap      int
}

const dsCounter = ds.CustomBase + 1

func newCounterPartition(capacity, _ int) ds.Partition {
	return &counterPartition{counters: make(map[string]int64), cap: capacity}
}

func (p *counterPartition) Type() core.DSType { return dsCounter }
func (p *counterPartition) Capacity() int     { return p.cap }

func (p *counterPartition) Bytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}

// Apply: OpUpdate(name, delta8) adds delta and returns the new value;
// OpGet(name) reads; OpDelete(name) removes.
func (p *counterPartition) Apply(op core.OpType, args [][]byte) ([][]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch op {
	case core.OpUpdate:
		if len(args) != 2 || len(args[1]) != 8 {
			return nil, fmt.Errorf("counter: update wants (name, delta8)")
		}
		name := string(args[0])
		if _, exists := p.counters[name]; !exists {
			if p.bytes+len(name)+8 > p.cap {
				return nil, core.ErrBlockFull
			}
			p.bytes += len(name) + 8
		}
		p.counters[name] += int64(binary.BigEndian.Uint64(args[1]))
		out := make([]byte, 8)
		binary.BigEndian.PutUint64(out, uint64(p.counters[name]))
		return [][]byte{out}, nil
	case core.OpGet:
		if len(args) != 1 {
			return nil, fmt.Errorf("counter: get wants (name)")
		}
		v, ok := p.counters[string(args[0])]
		if !ok {
			return nil, core.ErrNotFound
		}
		out := make([]byte, 8)
		binary.BigEndian.PutUint64(out, uint64(v))
		return [][]byte{out}, nil
	case core.OpDelete:
		name := string(args[0])
		if _, ok := p.counters[name]; !ok {
			return nil, core.ErrNotFound
		}
		delete(p.counters, name)
		p.bytes -= len(name) + 8
		return nil, nil
	default:
		return nil, fmt.Errorf("counter: %w (%v)", core.ErrWrongType, op)
	}
}

func (p *counterPartition) Snapshot() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p.counters); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (p *counterPartition) Restore(snapshot []byte) error {
	counters := make(map[string]int64)
	if err := gob.NewDecoder(bytes.NewReader(snapshot)).Decode(&counters); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.counters = counters
	p.bytes = 0
	for name := range counters {
		p.bytes += len(name) + 8
	}
	return nil
}

var registerCounterOnce sync.Once

func registerCounter(t *testing.T) {
	registerCounterOnce.Do(func() {
		if err := ds.Register(dsCounter, "counter", newCounterPartition); err != nil {
			t.Fatal(err)
		}
	})
}

func delta(d int64) []byte {
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, uint64(d))
	return out
}

// TestCustomDataStructureEndToEnd registers the counter structure and
// drives it through the full stack: controller provisioning, server
// instantiation via the registry, client raw handle, notifications,
// flush/load, and lease expiry.
func TestCustomDataStructureEndToEnd(t *testing.T) {
	registerCounter(t)
	cfg := core.TestConfig()
	cfg.LeaseDuration = time.Minute
	cluster, err := StartCluster(ClusterOptions{
		Config: cfg, Servers: 2, BlocksPerServer: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	c, _ := cluster.Connect(context.Background())
	defer c.Close()

	c.RegisterJob(context.Background(), "cj")
	if _, _, err := c.CreatePrefix(context.Background(), "cj/hits", nil, dsCounter, 1, 0); err != nil {
		t.Fatal(err)
	}
	h, err := c.OpenCustom(context.Background(), "cj/hits", dsCounter)
	if err != nil {
		t.Fatal(err)
	}
	// Increment from several goroutines; counters are atomic per block.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := h.Exec(context.Background(), 0, core.OpUpdate, []byte("requests"), delta(1)); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	res, err := h.Exec(context.Background(), 0, core.OpGet, []byte("requests"))
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(binary.BigEndian.Uint64(res[0])); got != 100 {
		t.Errorf("counter = %d, want 100", got)
	}

	// Checkpoint and restore through the generic snapshot machinery.
	if _, err := c.FlushPrefix(context.Background(), "cj/hits", "ckpt/counters"); err != nil {
		t.Fatal(err)
	}
	h.Exec(context.Background(), 0, core.OpUpdate, []byte("requests"), delta(999))
	if err := c.LoadPrefix(context.Background(), "cj/hits", "ckpt/counters"); err != nil {
		t.Fatal(err)
	}
	h2, _ := c.OpenCustom(context.Background(), "cj/hits", dsCounter)
	res, err = h2.Exec(context.Background(), 0, core.OpGet, []byte("requests"))
	if err != nil || int64(binary.BigEndian.Uint64(res[0])) != 100 {
		t.Errorf("restored counter = %v, %v", res, err)
	}

	// Growth appends chunk-indexed blocks.
	if err := h2.Grow(context.Background()); err != nil {
		t.Fatal(err)
	}
	n, _ := h2.Blocks(context.Background())
	if n != 2 {
		t.Errorf("blocks after grow = %d", n)
	}
	if _, err := h2.Exec(context.Background(), 1, core.OpUpdate, []byte("other"), delta(5)); err != nil {
		t.Errorf("op on grown chunk: %v", err)
	}

	// Wrong type code is rejected at open.
	if _, err := c.OpenCustom(context.Background(), "cj/hits", dsCounter+1); !errors.Is(err, core.ErrWrongType) {
		t.Errorf("open with wrong code = %v", err)
	}
}

func TestCustomRegistryValidation(t *testing.T) {
	registerCounter(t)
	// Reserved codes rejected.
	if err := ds.Register(core.DSKV, "bad", newCounterPartition); err == nil {
		t.Error("built-in code accepted")
	}
	// Duplicates rejected.
	if err := ds.Register(dsCounter, "counter2", newCounterPartition); !errors.Is(err, core.ErrExists) {
		t.Errorf("duplicate code = %v", err)
	}
	if err := ds.Register(dsCounter+7, "counter", newCounterPartition); !errors.Is(err, core.ErrExists) {
		t.Errorf("duplicate name = %v", err)
	}
	if !ds.IsCustom(dsCounter) {
		t.Error("registered type not reported as custom")
	}
	if ds.IsCustom(core.DSFile) {
		t.Error("built-in reported as custom")
	}
	// Unregistered type creation fails everywhere.
	if _, err := ds.NewCustom(ds.CustomBase+40, 1024, 64); err == nil {
		t.Error("unregistered custom type created")
	}
}
