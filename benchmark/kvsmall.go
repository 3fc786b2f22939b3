package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"time"

	"jiffy"
	"jiffy/benchmark/stats"
	"jiffy/internal/core"
)

// kvSmall is the kv-small-tcp workload: small unbatched gets and puts
// over tcp loopback, where per-request overhead (framing, rpc call
// objects, the client's route/retry loop, server dispatch, syscalls)
// is nearly all of the cost and block ops and copies almost none.
//
// It runs on one P. One closed-loop client makes the request path a
// strictly serial chain of goroutine hand-offs, and on two Ps every
// hand-off crosses CPUs: in a small VM the price of that wake-up (an
// inter-processor interrupt, often a halt exit) drifted by 15 % from
// one few-second stretch to the next and made identical code measure
// 9 % apart. On one P the hand-offs stay in the Go scheduler and what
// is left is the program's own path length.
type kvSmall struct {
	env
	kv    *jiffy.KV
	keys  []string
	model []uint32 // CRC of the value each key holds
	vers  []uint32 // how often each key was written
	pool  []byte   // random bytes the values are cut from
	val   [kvValueSize]byte
	gen   kvGen
}

// kvGen is the seeded operation stream: a zipf-distributed key and
// whether the operation writes.
type kvGen struct {
	rng  *rand.Rand
	zipf *stats.Zipf
	n    int
}

func newKVGen(seed uint64, n int) kvGen {
	rng := stats.NewRand(seed, 1)
	return kvGen{rng: rng, zipf: stats.NewZipf(rng, n, kvTheta), n: n}
}

func (g kvGen) next() (key int, write bool) {
	return stats.Scatter(g.zipf.Next(), g.n), g.rng.Float64() < kvWriteFrac
}

const (
	kvKeys      = 200_000
	kvKeysSmoke = 20_000
	kvValueSize = 128
	kvBatch     = 64
	kvWriteFrac = 0.2
	kvTheta     = 0.99
)

const (
	kvGet = iota
	kvPut
)

func (w *kvSmall) calls() []callDef {
	return []callDef{kvGet: {"client.KV.Get", kindRead}, kvPut: {"client.KV.Put", kindWrite}}
}

func (w *kvSmall) shape() shape {
	return shape{Transport: "tcp", Controllers: 1, Servers: 3, BlocksPerServer: 64,
		ChainLength: 1, BlockSize: core.MB, Generators: 1, Procs: 1}
}

// value builds the value version ver of key k in w.val: a slice of
// the random pool stamped with the key and version, so that no two
// writes of a key carry the same bytes.
func (w *kvSmall) value(k int, ver uint32) []byte {
	off := (k*31 + int(ver)*17) % (len(w.pool) - kvValueSize)
	copy(w.val[:], w.pool[off:])
	binary.LittleEndian.PutUint32(w.val[0:], uint32(k))
	binary.LittleEndian.PutUint32(w.val[4:], ver)
	return w.val[:]
}

func (w *kvSmall) setup(ctx context.Context, seed uint64, smoke bool) error {
	s := w.shape()
	cfg := core.TestConfig()
	cfg.BlockSize = s.BlockSize
	cfg.NumHashSlots = core.DefaultNumHashSlots
	cfg.LeaseDuration = time.Hour // leases play no part in this workload
	if err := w.boot(ctx, jiffy.ClusterOptions{Config: cfg, Transport: s.Transport,
		Servers: s.Servers, BlocksPerServer: s.BlocksPerServer}); err != nil {
		return err
	}
	if err := w.client.RegisterJob(ctx, "bench"); err != nil {
		return err
	}
	if _, _, err := w.client.CreatePrefix(ctx, "bench/kv", nil, jiffy.DSKV, 4, 0); err != nil {
		return err
	}
	var err error
	if w.kv, err = w.client.OpenKV(ctx, "bench/kv"); err != nil {
		return err
	}

	n := kvKeys
	if smoke {
		n = kvKeysSmoke
	}
	pool := stats.NewRand(seed, 0)
	w.pool = make([]byte, 64*core.KB)
	for i := range w.pool {
		w.pool[i] = byte(pool.Uint32())
	}
	w.keys = make([]string, n)
	w.model = make([]uint32, n)
	w.vers = make([]uint32, n)
	for i := range w.keys {
		w.keys[i] = fmt.Sprintf("k%015d", i)
	}

	// Preload every key in batches, so that all the scale-ups and slot
	// moves the data set needs happen here.
	pairs := make([]jiffy.KVPair, 0, kvBatch)
	vals := make([]byte, kvBatch*kvValueSize)
	for i := 0; i < n; i += kvBatch {
		pairs = pairs[:0]
		for k := i; k < i+kvBatch && k < n; k++ {
			v := vals[(k-i)*kvValueSize:][:kvValueSize]
			copy(v, w.value(k, 0))
			w.model[k] = crc32.ChecksumIEEE(v)
			pairs = append(pairs, jiffy.KVPair{Key: w.keys[k], Value: v})
		}
		if err := w.kv.MultiPut(ctx, pairs); err != nil {
			return fmt.Errorf("preload at key %d: %w", i, err)
		}
	}
	w.quiesce()

	// The hash covers the value pool and the first operations of a
	// generator seeded like the one the round uses.
	w.gen = newKVGen(seed, n)
	w.sum.Add(uint64(crc32.ChecksumIEEE(w.pool)))
	for i, g := 0, newKVGen(seed, n); i < hashedOps; i++ {
		k, write := g.next()
		w.sum.Add(uint64(k) << 1)
		if write {
			w.sum.Add(1)
		}
	}
	return nil
}

func (w *kvSmall) drive(ctx context.Context, d time.Duration, rec *recorder) error {
	for {
		k, write := w.gen.next()
		var t0, t1 time.Time
		if write {
			v := w.value(k, w.vers[k]+1)
			t0 = time.Now()
			err := w.kv.Put(ctx, w.keys[k], v)
			t1 = time.Now()
			if err == nil {
				w.vers[k]++
				w.model[k] = crc32.ChecksumIEEE(v)
			}
			rec.done(kvPut, t0, t1, 1, kvValueSize, err)
		} else {
			t0 = time.Now()
			v, err := w.kv.Get(ctx, w.keys[k])
			t1 = time.Now()
			if err == nil && crc32.ChecksumIEEE(v) != w.model[k] {
				err = errMismatch
			}
			rec.done(kvGet, t0, t1, 1, len(v), err)
		}
		if err := rec.tooManyFailures(); err != nil {
			return err
		}
		if t1.Sub(rec.begin) >= d {
			return nil
		}
	}
}

func (w *kvSmall) residentHeap(_ context.Context, measure func()) (int64, error) {
	measure()
	return int64(len(w.keys)) * int64(len(w.keys[0])+kvValueSize), nil
}

// verify reads a spread of keys back once more; every read in the
// measured phase was already checked against the model.
func (w *kvSmall) verify(ctx context.Context) error {
	for k := 0; k < len(w.keys); k += len(w.keys) / 64 {
		v, err := w.kv.Get(ctx, w.keys[k])
		if err != nil {
			return fmt.Errorf("final get %s: %w", w.keys[k], err)
		}
		if crc32.ChecksumIEEE(v) != w.model[k] {
			return fmt.Errorf("final get %s: %w", w.keys[k], errMismatch)
		}
	}
	return nil
}
