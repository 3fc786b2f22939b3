package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"time"

	"jiffy"
	"jiffy/benchmark/stats"
	"jiffy/internal/core"
)

// file1M is the file-1m-chain3 workload: 1 MiB writes and reads on a
// file replicated over a chain of three, where moving the payload
// (vectored frames, the file copy in ds, the forward down the chain)
// is nearly all of the cost and per-request overhead under 1 %.
// Writes alternate with reads on purpose: the read path is zero-copy,
// the write path allocates and replicates, so a change that helps one
// at the other's cost shows.
type file1M struct {
	env
	file   *jiffy.File
	spans  int
	model  []uint32 // CRC of what each 1 MiB span holds
	bufs   [][]byte // the payloads writes rotate through
	crcs   []uint32
	rng    *rand.Rand
	writes int // writes issued so far; fixes the next write's span
}

const (
	fileSpan       = core.MB
	fileSpans      = 64
	fileSpansSmoke = 8
	filePayloads   = 8
	// filePasses is how often set-up writes and reads back the whole
	// file. One pass takes a few hundred milliseconds; four make
	// setup_s long enough to be steady.
	filePasses = 4
)

const (
	fileRead = iota
	fileWrite
)

func (w *file1M) calls() []callDef {
	return []callDef{fileRead: {"client.File.ReadAt", kindRead}, fileWrite: {"client.File.WriteAt", kindWrite}}
}

func (w *file1M) shape() shape {
	return shape{Transport: "tcp", Controllers: 1, Servers: 3, BlocksPerServer: 48,
		ChainLength: 3, BlockSize: 4 * core.MB, Generators: 1, Procs: 2}
}

// writeSpan writes payload p over span s and records it in the model.
func (w *file1M) writeSpan(ctx context.Context, s, p int) error {
	if err := w.file.WriteAt(ctx, s*fileSpan, w.bufs[p]); err != nil {
		return err
	}
	w.model[s] = w.crcs[p]
	return nil
}

// readSpan reads span s and checks it against the model.
func (w *file1M) readSpan(ctx context.Context, s int) (got []byte, t0, t1 time.Time, err error) {
	t0 = time.Now()
	got, err = w.file.ReadAt(ctx, s*fileSpan, fileSpan)
	t1 = time.Now()
	if err == nil && (len(got) != fileSpan || crc32.ChecksumIEEE(got) != w.model[s]) {
		err = errMismatch
	}
	return got, t0, t1, err
}

func (w *file1M) setup(ctx context.Context, seed uint64, smoke bool) error {
	s := w.shape()
	cfg := core.TestConfig()
	cfg.BlockSize = s.BlockSize
	cfg.ChainLength = s.ChainLength
	cfg.LeaseDuration = time.Hour // leases play no part in this workload
	if err := w.boot(ctx, jiffy.ClusterOptions{Config: cfg, Transport: s.Transport,
		Servers: s.Servers, BlocksPerServer: s.BlocksPerServer}); err != nil {
		return err
	}
	if err := w.client.RegisterJob(ctx, "bench"); err != nil {
		return err
	}
	if _, _, err := w.client.CreatePrefix(ctx, "bench/file", nil, jiffy.DSFile, 1, 0); err != nil {
		return err
	}
	var err error
	if w.file, err = w.client.OpenFile(ctx, "bench/file"); err != nil {
		return err
	}

	w.spans = fileSpans
	if smoke {
		w.spans = fileSpansSmoke
	}
	w.model = make([]uint32, w.spans)
	pool := stats.NewRand(seed, 0)
	w.bufs = make([][]byte, filePayloads)
	w.crcs = make([]uint32, filePayloads)
	for p := range w.bufs {
		b := make([]byte, fileSpan)
		for i := 0; i < len(b); i += 8 {
			v := pool.Uint64()
			for j := 0; j < 8; j++ {
				b[i+j] = byte(v >> (8 * j))
			}
		}
		w.bufs[p], w.crcs[p] = b, crc32.ChecksumIEEE(b)
		w.sum.Add(uint64(w.crcs[p]))
	}

	// The first pass grows the file chunk by chunk through the
	// controller, so every scale-up is charged to set-up.
	for pass := 0; pass < filePasses; pass++ {
		for sp := 0; sp < w.spans; sp++ {
			if err := w.writeSpan(ctx, sp, (sp+pass)%filePayloads); err != nil {
				return fmt.Errorf("preload span %d: %w", sp, err)
			}
		}
		for sp := 0; sp < w.spans; sp++ {
			if _, _, _, err := w.readSpan(ctx, sp); err != nil {
				return fmt.Errorf("read back span %d: %w", sp, err)
			}
		}
	}
	w.quiesce()

	w.rng = stats.NewRand(seed, 1)
	for i, g := 0, stats.NewRand(seed, 1); i < hashedOps; i++ {
		w.sum.Add(uint64(g.IntN(filePayloads)))
		w.sum.Add(uint64(g.IntN(w.spans)))
	}
	return nil
}

func (w *file1M) drive(ctx context.Context, d time.Duration, rec *recorder) error {
	for {
		// Write at the next span in rotation, then read a uniformly
		// chosen one; each 1 MiB call is one operation.
		p, rs := w.rng.IntN(filePayloads), w.rng.IntN(w.spans)
		ws := w.writes % w.spans
		w.writes++
		t0 := time.Now()
		err := w.writeSpan(ctx, ws, p)
		t1 := time.Now()
		rec.done(fileWrite, t0, t1, 1, fileSpan, err)

		got, t0, t1, err := w.readSpan(ctx, rs)
		rec.done(fileRead, t0, t1, 1, len(got), err)

		if err := rec.tooManyFailures(); err != nil {
			return err
		}
		if t1.Sub(rec.begin) >= d {
			return nil
		}
	}
}

func (w *file1M) residentHeap(_ context.Context, measure func()) (int64, error) {
	measure()
	return int64(w.spans) * fileSpan, nil
}

// verify reads the whole file back against the model.
func (w *file1M) verify(ctx context.Context) error {
	for sp := 0; sp < w.spans; sp++ {
		if _, _, _, err := w.readSpan(ctx, sp); err != nil {
			return fmt.Errorf("final read of span %d: %w", sp, err)
		}
	}
	return nil
}
