package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"time"

	"jiffy"
	"jiffy/benchmark/stats"
	"jiffy/internal/core"
)

// shuffleBatch is the shuffle-batch-mem workload: back-to-back whole
// map-reduce shuffles laid out as internal/mr lays them out, over the
// in-process transport. Transport cost is negligible, so the batch
// codec, the client's batch regrouping, the blockstore append, lease
// renewal and the controller's scale-up path carry the time, with
// several writers contending for each shuffle file. What a user feels
// here is job completion time, so a throughput window is one job.
type shuffleBatch struct {
	env
	workers int      // mappers, and reducers
	vocab   [][]byte // one framed record per vocabulary word
	reducer []uint8  // the reducer each word's records go to
	crcs    []uint32 // CRC of each word's record
	splits  [][]uint16
	want    []reduced // what each reducer must find
	free    int       // free blocks before any job
	jobs    int
}

// reduced is what one reducer computes from its shuffle file.
type reduced struct {
	records int
	sum     uint64 // sum of the records' CRCs, independent of order
}

const (
	shuffleRecord     = 100 // bytes per framed record, as in internal/mr
	shuffleBatchSize  = 64
	shuffleBytes      = 16 * core.MB
	shuffleBytesSmoke = 2 * core.MB
	shuffleVocab      = 4096
	shuffleTheta      = 0.9
	shuffleWarmJobs   = 5
	shuffleRenewEvery = 250 * time.Millisecond
)

const (
	shuffleRead = iota
	shuffleWrite
	shuffleControl
)

func (w *shuffleBatch) calls() []callDef {
	return []callDef{
		shuffleRead:    {"client.File.ReadChunk", kindRead},
		shuffleWrite:   {"client.File.AppendBatch", kindWrite},
		shuffleControl: {"client.job-control", kindOther},
	}
}

// shuffleWorkers is the number of mapper (and reducer) goroutines:
// one per CPU, and no more than two so that the workload is the same
// on every machine with at least two.
func shuffleWorkers() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// One server, not two: with two, whether a reducer's chunks sit on one
// server or alternate between them depends on the order in which the
// two shuffle files happened to grow, and with it whether the reducers
// collide on a connection. That made the median ReadChunk latency jump
// between 205 and 245 us from round to round (spread 9.5 %); on one
// server they always share the connection and the spread is 4 %.
func (w *shuffleBatch) shape() shape {
	return shape{Transport: "mem", Controllers: 1, Servers: 1, BlocksPerServer: 512,
		ChainLength: 1, BlockSize: 256 * core.KB, Generators: shuffleWorkers(), Procs: 2}
}

func (w *shuffleBatch) setup(ctx context.Context, seed uint64, smoke bool) error {
	s := w.shape()
	cfg := core.TestConfig()
	cfg.BlockSize = s.BlockSize
	cfg.LeaseDuration = core.DefaultLeaseDuration
	cfg.LeaseScanPeriod = core.DefaultLeaseScanPeriod
	if err := w.boot(ctx, jiffy.ClusterOptions{Config: cfg, Transport: s.Transport,
		Servers: s.Servers, BlocksPerServer: s.BlocksPerServer}); err != nil {
		return err
	}
	w.workers = s.Generators
	w.free = w.cluster.Controller.Stats().FreeBlocks

	// The corpus: a zipf-distributed sequence of vocabulary words, cut
	// into one split per mapper. Every word has one fixed record,
	// framed as internal/mr frames a pair (u32 total, u32 key length,
	// key, value), so the expected output of every reducer is known
	// before a job runs.
	rng := stats.NewRand(seed, 0)
	w.vocab = make([][]byte, shuffleVocab)
	w.reducer = make([]uint8, shuffleVocab)
	w.crcs = make([]uint32, shuffleVocab)
	for i := range w.vocab {
		rec := make([]byte, shuffleRecord)
		key := fmt.Sprintf("w%05d-%08x", i, rng.Uint32())
		binary.BigEndian.PutUint32(rec[0:], shuffleRecord-4)
		binary.BigEndian.PutUint32(rec[4:], uint32(len(key)))
		copy(rec[8:], key)
		for j := 8 + len(key); j < len(rec); j++ {
			rec[j] = 'a' + byte(rng.IntN(26))
		}
		w.vocab[i], w.crcs[i] = rec, crc32.ChecksumIEEE(rec)
		w.reducer[i] = uint8(crc32.ChecksumIEEE([]byte(key)) % uint32(w.workers))
		w.sum.Add(uint64(w.crcs[i]))
	}
	total := shuffleBytes
	if smoke {
		total = shuffleBytesSmoke
	}
	records := total / shuffleRecord
	zipf := stats.NewZipf(rng, shuffleVocab, shuffleTheta)
	w.splits = make([][]uint16, w.workers)
	w.want = make([]reduced, w.workers)
	for i := 0; i < records; i++ {
		word := stats.Scatter(zipf.Next(), shuffleVocab)
		m := i % w.workers
		w.splits[m] = append(w.splits[m], uint16(word))
		r := &w.want[w.reducer[word]]
		r.records++
		r.sum += uint64(w.crcs[word])
		if i < hashedOps {
			w.sum.Add(uint64(word))
		}
	}

	// Whole untimed jobs, so that pools and the allocator are warm and
	// set-up is about a second of real work.
	warm := newRecorder(w.calls(), time.Second, nil, 0)
	warm.begin = time.Now()
	for i := 0; i < shuffleWarmJobs; i++ {
		if err := w.job(ctx, warm, nil); err != nil {
			return err
		}
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm job: %w", warm.firstErr)
	}
	return nil
}

// drive runs whole jobs back to back until d has elapsed; the job in
// progress at that moment is finished.
func (w *shuffleBatch) drive(ctx context.Context, d time.Duration, rec *recorder) error {
	for {
		if err := w.job(ctx, rec, nil); err != nil {
			return err
		}
		now := time.Since(rec.begin)
		rec.win.Close(now, rec.ops)
		if err := rec.tooManyFailures(); err != nil {
			return err
		}
		if now >= d {
			return nil
		}
	}
}

// job runs one map-reduce shuffle. afterMap, when set, runs between
// the map and the reduce phase, while all shuffled bytes are resident.
func (w *shuffleBatch) job(ctx context.Context, rec *recorder, afterMap func()) error {
	w.jobs++
	job := core.JobID(fmt.Sprintf("job%d", w.jobs))
	mapPrefix := core.Path(job).MustChild("map")
	paths := make([]core.Path, w.workers)
	files := make([]*jiffy.File, w.workers)

	// control times one control-plane step of the job's master.
	control := func(fn func() error) error {
		t0 := time.Now()
		err := fn()
		rec.done(shuffleControl, t0, time.Now(), 1, 0, err)
		return err
	}
	if err := control(func() error { return w.client.RegisterJob(ctx, job) }); err != nil {
		return err
	}
	if err := control(func() error {
		_, _, err := w.client.CreatePrefix(ctx, mapPrefix, nil, jiffy.DSNone, 0, 0)
		return err
	}); err != nil {
		return err
	}
	for r := range paths {
		paths[r] = mapPrefix.MustChild(fmt.Sprintf("shuffle-%d", r))
		if err := control(func() error {
			_, _, err := w.client.CreatePrefix(ctx, paths[r], nil, jiffy.DSFile, 1, 0)
			return err
		}); err != nil {
			return err
		}
		if err := control(func() (err error) {
			files[r], err = w.client.OpenFile(ctx, paths[r])
			return err
		}); err != nil {
			return err
		}
	}
	renewer := w.client.StartRenewer(shuffleRenewEvery, mapPrefix)
	defer renewer.Stop()

	forks := make([]*recorder, w.workers)
	for i := range forks {
		forks[i] = rec.fork()
	}
	var wg sync.WaitGroup
	for m := 0; m < w.workers; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.mapTask(ctx, forks[m], w.splits[m], files)
		}()
	}
	wg.Wait()
	if afterMap != nil {
		afterMap()
	}
	for r := 0; r < w.workers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.reduceTask(ctx, forks[r], files[r], w.want[r])
		}()
	}
	wg.Wait()
	for _, f := range forks {
		rec.join(f)
	}

	renewer.Stop()
	if err := control(func() error { return w.client.DeregisterJob(ctx, job) }); err != nil {
		return err
	}
	// Deregistering reclaims every block the job grew into.
	if free := w.cluster.Controller.Stats().FreeBlocks; free != w.free {
		rec.done(shuffleControl, time.Time{}, time.Time{}, 1, 0,
			fmt.Errorf("%d blocks free after %s, %d before: %w", free, job, w.free, errMismatch))
	}
	return nil
}

// mapTask appends one split's records to the shuffle files, 64 at a
// time per file; one record appended is one operation.
func (w *shuffleBatch) mapTask(ctx context.Context, rec *recorder, split []uint16, files []*jiffy.File) {
	batches := make([][][]byte, len(files))
	for r := range batches {
		batches[r] = make([][]byte, 0, shuffleBatchSize)
	}
	flush := func(r int) {
		t0 := time.Now()
		_, err := files[r].AppendBatch(ctx, batches[r])
		rec.done(shuffleWrite, t0, time.Now(), len(batches[r]), len(batches[r])*shuffleRecord, err)
		batches[r] = batches[r][:0]
	}
	for _, word := range split {
		r := w.reducer[word]
		batches[r] = append(batches[r], w.vocab[word])
		if len(batches[r]) == shuffleBatchSize {
			flush(int(r))
			if rec.failed > maxFailures {
				return
			}
		}
	}
	for r := range batches {
		if len(batches[r]) > 0 {
			flush(r)
		}
	}
}

// reduceTask reads one shuffle file chunk by chunk and checks the
// record count and checksum; one record read is one operation.
func (w *shuffleBatch) reduceTask(ctx context.Context, rec *recorder, f *jiffy.File, want reduced) {
	chunks, err := f.Chunks(ctx)
	if err != nil {
		rec.done(shuffleRead, time.Time{}, time.Time{}, want.records, 0, err)
		return
	}
	var got reduced
	for ci := 0; ci < chunks; ci++ {
		t0 := time.Now()
		data, err := f.ReadChunk(ctx, ci)
		t1 := time.Now()
		n := 0
		for off := 0; err == nil && off+4 <= len(data); off += shuffleRecord {
			// A zero length word ends the chunk's records, as in
			// internal/mr; anything but a whole record is corrupt.
			total := binary.BigEndian.Uint32(data[off:])
			if total == 0 {
				break
			}
			if total != shuffleRecord-4 || off+shuffleRecord > len(data) {
				err = fmt.Errorf("corrupt record at %d of chunk %d: %w", off, ci, errMismatch)
				break
			}
			got.sum += uint64(crc32.ChecksumIEEE(data[off : off+shuffleRecord]))
			n++
		}
		got.records += n
		rec.done(shuffleRead, t0, t1, n, len(data), err)
		if err != nil {
			return
		}
	}
	if got != want {
		rec.done(shuffleRead, time.Time{}, time.Time{}, 1, 0,
			fmt.Errorf("reducer found %+v, want %+v: %w", got, want, errMismatch))
	}
}

// residentHeap runs one more job, of which nothing is recorded, and
// takes the heap measurement between its map and reduce phases, when
// the shuffled bytes are resident.
func (w *shuffleBatch) residentHeap(ctx context.Context, measure func()) (int64, error) {
	var bytes int64
	for _, s := range w.splits {
		bytes += int64(len(s)) * shuffleRecord
	}
	rec := newRecorder(w.calls(), time.Second, nil, 0)
	rec.begin = time.Now()
	err := w.job(ctx, rec, measure)
	if err == nil && rec.failed > 0 {
		err = rec.firstErr
	}
	return bytes, err
}

func (w *shuffleBatch) verify(context.Context) error { return nil }
