package jiffy

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"jiffy/internal/core"
	"jiffy/internal/ds"
)

// TestKVOverwriteNoTornReads: a KV value is overwritten in place, so
// every read must copy it out under the bucket lock guarding it. Two
// writers overwrite 16 keys with same-length values, each one letter
// repeated, while readers take them through Get, MultiGet and partition
// snapshots, and an ExportSlots finally moves them all out: every value
// read must be one whole written value. Under -race a copy taken outside
// the lock is also a reported race.
func TestKVOverwriteNoTornReads(t *testing.T) {
	cluster, c := testCluster(t, 1, 8)
	ctx := context.Background()
	if err := c.RegisterJob(ctx, "torn"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.CreatePrefix(ctx, "torn/kv", nil, DSKV, 1, 0); err != nil {
		t.Fatal(err)
	}
	kv, err := c.OpenKV(ctx, "torn/kv")
	if err != nil {
		t.Fatal(err)
	}
	const size = 256
	keys := make([]string, 16)
	val := func(i int) []byte { return bytes.Repeat([]byte{'a' + byte(i%26)}, size) }
	for i := range keys {
		keys[i] = string(rune('A'+i)) + "-key"
		if err := kv.Put(ctx, keys[i], val(0)); err != nil {
			t.Fatal(err)
		}
	}
	var part *ds.KV
	for _, b := range cluster.Servers[0].Store().List() {
		if b.Path == "torn/kv" {
			part = b.Partition.(*ds.KV)
		}
	}
	checkWhole := func(how string, v []byte) {
		if len(v) != size || !bytes.Equal(v, bytes.Repeat(v[:1], size)) {
			t.Errorf("%s read a torn value: %d bytes, %q...", how, len(v), v[:min(len(v), 16)])
		}
	}

	wctx, stop := context.WithCancel(ctx)
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 1; wctx.Err() == nil; i++ {
				// After the export every put is refused as stale: only the
				// reads are checked.
				kv.Put(wctx, keys[(i*7+w)%len(keys)], val(i))
			}
		}()
	}
	var readers sync.WaitGroup
	read := func(n int, fn func()) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < n; i++ {
				fn()
			}
		}()
	}
	read(400, func() {
		v, err := kv.Get(ctx, keys[0])
		if err != nil {
			t.Error(err)
			return
		}
		checkWhole("Get", v)
	})
	read(40, func() {
		vals, err := kv.MultiGet(ctx, keys)
		if err != nil {
			t.Error(err)
			return
		}
		for _, v := range vals {
			checkWhole("MultiGet", v)
		}
	})
	read(40, func() {
		snap, err := part.Snapshot()
		if err != nil {
			t.Error(err)
			return
		}
		restored := ds.NewKV(core.MB, 0, nil)
		if err := restored.Restore(snap); err != nil {
			t.Error(err)
			return
		}
		for _, k := range keys {
			v, err := restored.Get(k)
			if err != nil {
				t.Error(err)
				return
			}
			checkWhole("Snapshot", v)
		}
	})
	readers.Wait()
	moved := part.ExportSlots(part.Owned())
	stop()
	writers.Wait()
	if len(moved) != len(keys) {
		t.Fatalf("ExportSlots moved %d pairs, want %d", len(moved), len(keys))
	}
	for _, e := range moved {
		checkWhole("ExportSlots", e.Value)
	}
}
