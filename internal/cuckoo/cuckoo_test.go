package cuckoo

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGet(t *testing.T) {
	tb := New(0)
	if _, existed := tb.Put("k1", []byte("v1")); existed {
		t.Error("fresh key reported as existing")
	}
	v, ok := tb.Get("k1")
	if !ok || string(v) != "v1" {
		t.Errorf("Get = %q, %v", v, ok)
	}
	if _, ok := tb.Get("missing"); ok {
		t.Error("missing key found")
	}
}

func TestOverwrite(t *testing.T) {
	tb := New(0)
	tb.Put("k", []byte("old"))
	prev, existed := tb.Put("k", []byte("new"))
	if !existed || string(prev) != "old" {
		t.Errorf("Put returned %q, %v", prev, existed)
	}
	v, _ := tb.Get("k")
	if string(v) != "new" {
		t.Errorf("value = %q", v)
	}
	if tb.Len() != 1 {
		t.Errorf("len = %d", tb.Len())
	}
}

func TestDelete(t *testing.T) {
	tb := New(0)
	tb.Put("k", []byte("v"))
	val, ok := tb.Delete("k")
	if !ok || string(val) != "v" {
		t.Errorf("Delete = %q, %v", val, ok)
	}
	if _, ok := tb.Get("k"); ok {
		t.Error("deleted key still present")
	}
	if _, ok := tb.Delete("k"); ok {
		t.Error("double delete reported success")
	}
	if tb.Len() != 0 {
		t.Errorf("len = %d", tb.Len())
	}
}

func TestGrowth(t *testing.T) {
	tb := New(4) // deliberately tiny; forces many growths
	const n = 10000
	for i := 0; i < n; i++ {
		tb.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i)))
	}
	if tb.Len() != n {
		t.Fatalf("len = %d, want %d", tb.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok := tb.Get(fmt.Sprintf("key-%d", i))
		if !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key-%d: %q, %v", i, v, ok)
		}
	}
	if lf := tb.LoadFactor(); lf <= 0 || lf > 1 {
		t.Errorf("load factor = %v", lf)
	}
}

func TestBytesAccounting(t *testing.T) {
	tb := New(0)
	tb.Put("abc", []byte("12345")) // 3+5
	if tb.Bytes() != 8 {
		t.Errorf("bytes = %d, want 8", tb.Bytes())
	}
	tb.Put("abc", []byte("1")) // 3+1
	if tb.Bytes() != 4 {
		t.Errorf("bytes after overwrite = %d, want 4", tb.Bytes())
	}
	tb.Delete("abc")
	if tb.Bytes() != 0 {
		t.Errorf("bytes after delete = %d, want 0", tb.Bytes())
	}
}

func TestRange(t *testing.T) {
	tb := New(0)
	want := map[string]string{}
	for i := 0; i < 100; i++ {
		k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		want[k] = v
		tb.Put(k, []byte(v))
	}
	got := map[string]string{}
	tb.Range(func(k string, v []byte) bool {
		got[k] = string(v)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ranged over %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("key %q = %q, want %q", k, got[k], v)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tb := New(0)
	for i := 0; i < 50; i++ {
		tb.Put(fmt.Sprintf("k%d", i), nil)
	}
	seen := 0
	tb.Range(func(string, []byte) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Errorf("early stop visited %d entries", seen)
	}
}

func TestClear(t *testing.T) {
	tb := New(0)
	for i := 0; i < 100; i++ {
		tb.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	tb.Clear()
	if tb.Len() != 0 || tb.Bytes() != 0 {
		t.Errorf("after clear: len=%d bytes=%d", tb.Len(), tb.Bytes())
	}
	if _, ok := tb.Get("k1"); ok {
		t.Error("cleared key still present")
	}
	// Table remains usable.
	tb.Put("x", []byte("y"))
	if tb.Len() != 1 {
		t.Errorf("len after reuse = %d", tb.Len())
	}
}

func TestEmptyKeyAndValue(t *testing.T) {
	tb := New(0)
	tb.Put("", []byte{})
	v, ok := tb.Get("")
	if !ok || len(v) != 0 {
		t.Errorf("empty key: %v, %v", v, ok)
	}
}

// TestModelEquivalence drives the table and a map with the same random
// operation sequence and checks they agree — the core property test.
func TestModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := New(0)
		model := map[string]string{}
		for op := 0; op < 2000; op++ {
			k := fmt.Sprintf("key-%d", rng.Intn(200))
			switch rng.Intn(4) {
			case 0, 1: // put
				v := fmt.Sprintf("val-%d", rng.Int())
				_, existedTable := tb.Put(k, []byte(v))
				_, existedModel := model[k]
				if existedTable != existedModel {
					return false
				}
				model[k] = v
			case 2: // get
				gv, gok := tb.Get(k)
				mv, mok := model[k]
				if gok != mok || (gok && string(gv) != mv) {
					return false
				}
			case 3: // delete
				_, dok := tb.Delete(k)
				_, mok := model[k]
				if dok != mok {
					return false
				}
				delete(model, k)
			}
			if tb.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentMixed(t *testing.T) {
	tb := New(1024)
	var wg sync.WaitGroup
	const goroutines = 8
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i%100)
				switch i % 3 {
				case 0:
					tb.Put(k, []byte("v"))
				case 1:
					tb.Get(k)
				case 2:
					tb.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()
	// Each goroutine's last op per key determines presence; just check
	// internal consistency (Len agrees with a full Range count).
	count := 0
	tb.Range(func(string, []byte) bool { count++; return true })
	if count != tb.Len() {
		t.Errorf("Range counted %d, Len() = %d", count, tb.Len())
	}
}

func BenchmarkPut(b *testing.B) {
	tb := New(b.N)
	keys := make([]string, b.N)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	val := []byte("0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Put(keys[i], val)
	}
}

func BenchmarkGet(b *testing.B) {
	tb := New(100000)
	for i := 0; i < 100000; i++ {
		tb.Put(fmt.Sprintf("key-%d", i), []byte("value"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Get(fmt.Sprintf("key-%d", i%100000))
	}
}

func BenchmarkGetParallel(b *testing.B) {
	tb := New(100000)
	for i := 0; i < 100000; i++ {
		tb.Put(fmt.Sprintf("key-%d", i), []byte("value"))
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			tb.Get(fmt.Sprintf("key-%d", i%100000))
			i++
		}
	})
}

// TestSlotRangeKeysFillTable: the KV store routes keys to a block by
// the low bits of their FNV-64a hash, so one block's keys all share
// them. The bucket index must not reuse those bits, or the keys crowd a
// fraction of the primary buckets and the table grows half empty. Every
// growth past 256 buckets must come at a load factor of at least 0.9.
func TestSlotRangeKeysFillTable(t *testing.T) {
	const numSlots, owned = 1024, 32 // a shard owning 32 of 1 024 slots
	fnv := func(s string) uint64 {
		h := uint64(14695981039346656037)
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		return h
	}
	tb := New(0)
	for i := 0; len(tb.buckets) < 4096; i++ {
		k := fmt.Sprintf("k%015d", i)
		if fnv(k)&(numSlots-1) >= owned {
			continue
		}
		before := len(tb.buckets)
		tb.Set(k, nil, -1)
		if n := len(tb.buckets); n != before && before >= 256 {
			if lf := float64(tb.Len()-1) / float64(before*slotsPerBucket); lf < 0.9 {
				t.Fatalf("grew from %d buckets at load factor %.2f, want >= 0.9", before, lf)
			}
		}
	}
}

// TestSetOverwritesInPlace: an overwrite copies into the stored bytes
// when they hold the new value and at most twice it, and takes a fresh
// copy otherwise; Set copies key and value, so the caller may reuse
// both.
func TestSetOverwritesInPlace(t *testing.T) {
	tb := New(0)
	stored := func(key string) []byte {
		h := hashKey(key)
		for _, i := range [2]uint64{tb.i1(h), tb.i2(tb.i1(h), h)} {
			if s := tb.find(i, h, key); s >= 0 {
				return tb.buckets[i].entries[s].val
			}
		}
		t.Fatalf("%q not stored", key)
		return nil
	}
	key := []byte("k")
	val := bytes.Repeat([]byte{1}, 100)
	tb.Set(string(key), val, -1)
	key[0], val[0] = 'x', 9 // the caller's buffers are its own
	if v, ok := tb.Get("k"); !ok || v[0] != 1 {
		t.Fatalf("Get = %v, %v after the caller reused its buffers", v[:1], ok)
	}
	first := &stored("k")[0]
	for _, c := range []struct {
		n       int
		inPlace bool
	}{{100, true}, {60, true}, {100, true}, {40, false}, {100, false}} {
		before := &stored("k")[0]
		if existed, ok := tb.Set("k", bytes.Repeat([]byte{byte(c.n)}, c.n), -1); !existed || !ok {
			t.Fatalf("Set %d bytes: existed=%v stored=%v", c.n, existed, ok)
		}
		v := stored("k")
		if (&v[0] == before) != c.inPlace || len(v) != c.n || v[c.n-1] != byte(c.n) {
			t.Fatalf("Set %d bytes: in place %v, len %d; want in place %v", c.n, &v[0] == before, len(v), c.inPlace)
		}
		if tb.Bytes() != 1+c.n {
			t.Fatalf("Bytes = %d, want %d", tb.Bytes(), 1+c.n)
		}
	}
	if &stored("k")[0] == first {
		t.Fatal("a value 2.5x smaller kept the old allocation")
	}
}

// TestSetLimit: a write that would grow Bytes past the limit stores
// nothing, a shrinking or same-size one always fits, and Update touches
// only existing keys, returning the value it replaced intact.
func TestSetLimit(t *testing.T) {
	tb := New(0)
	if _, ok := tb.Set("a", make([]byte, 100), 1024); !ok {
		t.Fatal("first insert refused")
	}
	if _, ok := tb.Set("b", make([]byte, 800), 1024); !ok {
		t.Fatal("second insert refused")
	}
	if existed, ok := tb.Set("a", make([]byte, 1000), 1024); !existed || ok {
		t.Fatalf("overwrite growing past the limit: existed=%v stored=%v", existed, ok)
	}
	if _, ok := tb.Set("c", make([]byte, 200), 1024); ok {
		t.Fatal("insert past the limit stored")
	}
	if tb.Bytes() != 902 || tb.Len() != 2 {
		t.Fatalf("bytes=%d len=%d, want 902 and 2", tb.Bytes(), tb.Len())
	}
	if _, ok := tb.Set("b", make([]byte, 800), 900); !ok {
		t.Fatal("same-size overwrite over the limit refused")
	}

	old := bytes.Repeat([]byte("o"), 100)
	tb.Set("a", old, -1)
	prev, found, ok := tb.Update("a", bytes.Repeat([]byte("n"), 100), -1)
	if !found || !ok || !bytes.Equal(prev, old) {
		t.Fatalf("Update = %q, %v, %v; want the old value", prev, found, ok)
	}
	if _, found, _ := tb.Update("missing", []byte("v"), -1); found || tb.Has("missing") {
		t.Fatal("Update inserted an absent key")
	}
}

// TestRemoveIf: the matching entries leave the table and their values
// are handed over whole.
func TestRemoveIf(t *testing.T) {
	tb := New(0)
	for i := 0; i < 100; i++ {
		tb.Set(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)), -1)
	}
	got := map[string]string{}
	tb.RemoveIf(func(k string) bool { return len(k) == 2 }, func(k string, v []byte) { got[k] = string(v) })
	if len(got) != 10 || tb.Len() != 90 {
		t.Fatalf("removed %d, %d left; want 10 and 90", len(got), tb.Len())
	}
	for k, v := range got {
		if v != "v"+k[1:] || tb.Has(k) {
			t.Errorf("%s: removed %q, still present %v", k, v, tb.Has(k))
		}
	}
}
