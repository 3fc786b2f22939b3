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
// repeated, while readers take them through Get, MultiGet, partition
// snapshots and slot snapshots (what a split's new member pulls): every
// value read must be one whole written value. Under -race a copy taken
// outside the lock is also a reported race.
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
	var numSlots int
	for _, b := range cluster.Servers[0].Store().List() {
		if b.Path == "torn/kv" {
			part, numSlots = b.Partition.(*ds.KV), b.NumSlots
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
	// restore reads every key back out of a whole or a slot snapshot.
	restore := func(how string, snap []byte, err error, load func(*ds.KV, []byte) error) {
		if err != nil {
			t.Error(err)
			return
		}
		restored := ds.NewKV(core.MB, numSlots, nil)
		if err := load(restored, snap); err != nil {
			t.Error(err)
			return
		}
		if _, err := restored.Apply(core.OpOwnSlots, ds.SlotArgs(core.OpOwnSlots, part.Owned(), false)); err != nil {
			t.Error(err)
			return
		}
		for _, k := range keys {
			v, err := restored.Get(k)
			if err != nil {
				t.Error(err)
				return
			}
			checkWhole(how, v)
		}
	}
	read(40, func() {
		snap, err := part.Snapshot()
		restore("Snapshot", snap, err, (*ds.KV).Restore)
	})
	read(40, func() {
		snap, err := part.SnapshotSlots(part.Owned())
		restore("SnapshotSlots", snap, err, func(k *ds.KV, snap []byte) error { return k.LoadSlots(part.Owned(), snap) })
	})
	readers.Wait()
	stop()
	writers.Wait()
}
