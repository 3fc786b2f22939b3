package jiffy

// End-to-end behavior tests for the batched multi-op API: value
// round-trips, per-op error attribution, chunk/segment boundaries
// crossed mid-batch, and a batch racing a repartition.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"jiffy/internal/client"
	"jiffy/internal/core"
	"jiffy/internal/faultinject"
	"jiffy/internal/rpc"
)

func batchKV(t *testing.T, c *Client, prefix core.Path, blocks int) *KV {
	t.Helper()
	if _, _, err := c.CreatePrefix(context.Background(), prefix, nil, DSKV, blocks, 0); err != nil {
		t.Fatal(err)
	}
	kv, err := c.OpenKV(context.Background(), prefix)
	if err != nil {
		t.Fatal(err)
	}
	return kv
}

func TestMultiPutMultiGetRoundTrip(t *testing.T) {
	_, c := testCluster(t, 2, 32)
	c.RegisterJob(context.Background(), "batch")
	kv := batchKV(t, c, "batch/t", 4)

	const n = 100
	pairs := make([]KVPair, n)
	keys := make([]string, n)
	for i := range pairs {
		keys[i] = fmt.Sprintf("key-%03d", i)
		pairs[i] = KVPair{Key: keys[i], Value: []byte(fmt.Sprintf("val-%03d", i))}
	}
	if err := kv.MultiPut(context.Background(), pairs); err != nil {
		t.Fatalf("MultiPut: %v", err)
	}
	vals, err := kv.MultiGet(context.Background(), keys)
	if err != nil {
		t.Fatalf("MultiGet: %v", err)
	}
	if len(vals) != n {
		t.Fatalf("MultiGet returned %d values for %d keys", len(vals), n)
	}
	for i, v := range vals {
		if string(v) != fmt.Sprintf("val-%03d", i) {
			t.Fatalf("vals[%d] = %q", i, v)
		}
	}
	// Batched writes are real writes: the single-op path sees them.
	if v, err := kv.Get(context.Background(), keys[n-1]); err != nil || string(v) != fmt.Sprintf("val-%03d", n-1) {
		t.Fatalf("single Get after MultiPut = %q, %v", v, err)
	}
}

func TestMultiGetMissingKeysAttributed(t *testing.T) {
	_, c := testCluster(t, 2, 32)
	c.RegisterJob(context.Background(), "batch")
	kv := batchKV(t, c, "batch/miss", 4)

	const n = 40
	var pairs []KVPair
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
		if i%2 == 0 {
			pairs = append(pairs, KVPair{Key: keys[i], Value: []byte("present")})
		}
	}
	if err := kv.MultiPut(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	vals, err := kv.MultiGet(context.Background(), keys)
	if err == nil {
		t.Fatal("MultiGet with missing keys reported total success")
	}
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("aggregate error does not unwrap to ErrNotFound: %v", err)
	}
	var me *MultiError
	if !errors.As(err, &me) || len(me.Errs) != n {
		t.Fatalf("error = %T with %d outcomes, want *MultiError with %d", err, len(me.Errs), n)
	}
	for i := range keys {
		present := i%2 == 0
		switch {
		case present && (me.Errs[i] != nil || string(vals[i]) != "present"):
			t.Fatalf("present key %d: val=%q err=%v", i, vals[i], me.Errs[i])
		case !present && !errors.Is(me.Errs[i], ErrNotFound):
			t.Fatalf("missing key %d attributed %v, want ErrNotFound", i, me.Errs[i])
		case !present && vals[i] != nil:
			t.Fatalf("missing key %d has value %q", i, vals[i])
		}
	}
}

// TestMultiGetBeyondOneFrame: a batch frame counts its ops in a u16, so
// a server's share of a batch larger than ds.MaxBatchOps must travel as
// several frames. Sent as one, the count wraps and the server refuses
// the whole frame, failing every op — the present keys included.
func TestMultiGetBeyondOneFrame(t *testing.T) {
	_, c := testCluster(t, 1, 16)
	c.RegisterJob(context.Background(), "batch")
	kv := batchKV(t, c, "batch/big", 1)

	const n, present = 65_537, 1_000
	keys := make([]string, n)
	pairs := make([]KVPair, present)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
		if i < present {
			pairs[i] = KVPair{Key: keys[i], Value: []byte(keys[i])}
		}
	}
	if err := kv.MultiPut(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	vals, err := kv.MultiGet(context.Background(), keys)
	var me *MultiError
	if !errors.As(err, &me) || len(me.Errs) != n {
		t.Fatalf("MultiGet of %d keys = %v, want a *MultiError with %d outcomes", n, err, n)
	}
	for i := range keys {
		switch {
		case i < present && (me.Errs[i] != nil || string(vals[i]) != keys[i]):
			t.Fatalf("present key %d: val=%q err=%v", i, vals[i], me.Errs[i])
		case i >= present && !errors.Is(me.Errs[i], ErrNotFound):
			t.Fatalf("absent key %d attributed %v, want ErrNotFound", i, me.Errs[i])
		}
	}
}

func TestBatchEmptyAndSingle(t *testing.T) {
	_, c := testCluster(t, 1, 16)
	c.RegisterJob(context.Background(), "batch")
	kv := batchKV(t, c, "batch/edge", 1)

	if err := kv.MultiPut(context.Background(), nil); err != nil {
		t.Errorf("empty MultiPut = %v", err)
	}
	if vals, err := kv.MultiGet(context.Background(), nil); err != nil || len(vals) != 0 {
		t.Errorf("empty MultiGet = %v, %v", vals, err)
	}
	if err := kv.MultiPut(context.Background(), []KVPair{{Key: "only", Value: []byte("one")}}); err != nil {
		t.Fatal(err)
	}
	vals, err := kv.MultiGet(context.Background(), []string{"only"})
	if err != nil || len(vals) != 1 || string(vals[0]) != "one" {
		t.Fatalf("single-op batch = %q, %v", vals, err)
	}
}

// TestAppendBatchAcrossChunkBoundary appends far more than one chunk in
// batches: the tail must fill mid-batch, the unplaced suffix scale up
// and land on the new tail, and every returned offset read back the
// record that was appended there.
func TestAppendBatchAcrossChunkBoundary(t *testing.T) {
	_, c := testCluster(t, 2, 32)
	c.RegisterJob(context.Background(), "batch")
	if _, _, err := c.CreatePrefix(context.Background(), "batch/f", nil, DSFile, 1, 0); err != nil {
		t.Fatal(err)
	}
	f, err := c.OpenFile(context.Background(), "batch/f")
	if err != nil {
		t.Fatal(err)
	}

	// 1KB records against 64KB chunks: 150 records span >2 chunks.
	const n = 150
	records := make([][]byte, n)
	for i := range records {
		records[i] = bytes.Repeat([]byte{byte(i)}, 1024)
	}
	var offs []int
	for lo := 0; lo < n; lo += 50 {
		batch, err := f.AppendBatch(context.Background(), records[lo:lo+50])
		if err != nil {
			t.Fatalf("AppendBatch[%d:]: %v", lo, err)
		}
		offs = append(offs, batch...)
	}

	chunks, err := f.Chunks(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if chunks < 3 {
		t.Fatalf("file has %d chunks; the batch never crossed a boundary", chunks)
	}
	seen := make(map[int]bool)
	for i, off := range offs {
		if seen[off] {
			t.Fatalf("records %d shares offset %d with an earlier record", i, off)
		}
		seen[off] = true
		got, err := f.ReadAt(context.Background(), off, len(records[i]))
		if err != nil || !bytes.Equal(got, records[i]) {
			t.Fatalf("record %d at offset %d: len=%d err=%v", i, off, len(got), err)
		}
	}
}

// TestEnqueueBatchFIFOAcrossSegments enqueues enough that the tail
// segment seals mid-batch (redirect path) and verifies strict FIFO
// order across the segment boundary on dequeue.
func TestEnqueueBatchFIFOAcrossSegments(t *testing.T) {
	_, c := testCluster(t, 2, 32)
	c.RegisterJob(context.Background(), "batch")
	if _, _, err := c.CreatePrefix(context.Background(), "batch/q", nil, DSQueue, 1, 0); err != nil {
		t.Fatal(err)
	}
	q, err := c.OpenQueue(context.Background(), "batch/q")
	if err != nil {
		t.Fatal(err)
	}

	// 1KB items against 64KB segments: 150 items cross segments.
	const n = 150
	items := make([][]byte, n)
	for i := range items {
		items[i] = append(bytes.Repeat([]byte{byte(i)}, 1023), byte(i))
	}
	for lo := 0; lo < n; lo += 50 {
		if err := q.EnqueueBatch(context.Background(), items[lo:lo+50]); err != nil {
			t.Fatalf("EnqueueBatch[%d:]: %v", lo, err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := q.Dequeue(context.Background())
		if err != nil {
			t.Fatalf("dequeue %d: %v", i, err)
		}
		if !bytes.Equal(got, items[i]) {
			t.Fatalf("dequeue %d out of order: got tag %d, want %d", i, got[0], i)
		}
	}
}

// TestBatchSpanningRepartitionInFlight is the stale-map scenario: a
// handle caches the partition map, the structure repartitions underneath
// it (driven through a second handle), and then a batch through the
// stale handle spans blocks that moved. The per-op ErrStaleEpoch
// responses must drive a refresh-and-regroup, not surface to the
// caller, and every op must land under the new map.
func TestBatchSpanningRepartitionInFlight(t *testing.T) {
	_, c := testCluster(t, 2, 64)
	c.RegisterJob(context.Background(), "batch")
	staleKV := batchKV(t, c, "batch/repart", 1) // caches the 1-block map

	// Drive repeated splits through an independent handle: the stale
	// handle's cached map now points most slots at the wrong block.
	writerKV, err := c.OpenKV(context.Background(), "batch/repart")
	if err != nil {
		t.Fatal(err)
	}
	filler := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < 400; i++ {
		if err := writerKV.Put(context.Background(), fmt.Sprintf("fill-%04d", i), filler); err != nil {
			t.Fatalf("fill put %d: %v", i, err)
		}
	}
	stats, err := c.ControllerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.AllocatedBlocks < 4 {
		t.Fatalf("allocated blocks = %d; the store never repartitioned", stats.AllocatedBlocks)
	}

	// A batch through the stale handle: its ops hit moved blocks, the
	// servers answer ErrStaleEpoch per op, and the batch engine must
	// split the batch and retry against the refreshed map.
	const n = 80
	pairs := make([]KVPair, n)
	keys := make([]string, n)
	for i := range pairs {
		keys[i] = fmt.Sprintf("batch-%03d", i)
		pairs[i] = KVPair{Key: keys[i], Value: []byte(fmt.Sprintf("bv-%03d", i))}
	}
	if err := staleKV.MultiPut(context.Background(), pairs); err != nil {
		t.Fatalf("MultiPut through stale handle: %v", err)
	}
	vals, err := staleKV.MultiGet(context.Background(), keys)
	if err != nil {
		t.Fatalf("MultiGet through refreshed handle: %v", err)
	}
	for i, v := range vals {
		if string(v) != fmt.Sprintf("bv-%03d", i) {
			t.Fatalf("vals[%d] = %q after repartition", i, v)
		}
	}
	// The fill data survived the batch traffic too.
	if v, err := writerKV.Get(context.Background(), "fill-0000"); err != nil || !bytes.Equal(v, filler) {
		t.Fatalf("fill key after batch: len=%d err=%v", len(v), err)
	}
}

// TestAppendBatchFollowsLinks: two writers append 100 B records in
// batches across ten 64 KiB chunks. Each chunk's over-signal, answered,
// links it to the next chunk, and a full chunk redirects its appenders
// there, so the writers never ask the controller to grow the file
// (client ScaleUp calls: 0). With every server-to-controller send
// reset, no signal is ever answered and nothing is linked: the writers
// grow the file themselves (the rare path) and still place every
// record. Either way every record reads back exactly once, at the
// offset its batch returned.
func TestAppendBatchFollowsLinks(t *testing.T) {
	for _, dropped := range []bool{false, true} {
		t.Run(fmt.Sprintf("signals-dropped=%v", dropped), func(t *testing.T) {
			inj := faultinject.New(46, nil)
			cfg := core.TestConfig()
			cfg.LeaseDuration = time.Hour
			cluster, err := StartCluster(ClusterOptions{Config: cfg, Servers: 1, BlocksPerServer: 64, Dial: inj.Dial})
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			ctx := context.Background()
			// The client dials past the injector: only the servers' sends
			// to the controller are reset.
			c, err := cluster.Connect(ctx, client.WithDial(rpc.Dial))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if dropped {
				inj.AddRule(faultinject.Rule{Name: "reset-signals", Match: "send:" + cluster.ControllerAddr, ResetProb: 1})
			}
			c.RegisterJob(ctx, "links")
			if _, _, err := c.CreatePrefix(ctx, "links/f", nil, DSFile, 1, 0); err != nil {
				t.Fatal(err)
			}

			const writers, batches, per, size = 2, 48, 64, 100
			record := func(w, i int) []byte {
				r := bytes.Repeat([]byte{byte('a' + w)}, size)
				binary.BigEndian.PutUint32(r[1:], uint32(i))
				return r
			}
			offs := make([][]int, writers)
			var wg sync.WaitGroup
			errs := make(chan error, writers)
			for w := 0; w < writers; w++ {
				f, err := c.OpenFile(ctx, "links/f")
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for b := 0; b < batches; b++ {
						recs := make([][]byte, per)
						for j := range recs {
							recs[j] = record(w, b*per+j)
						}
						got, err := f.AppendBatch(ctx, recs)
						if err != nil {
							errs <- fmt.Errorf("writer %d batch %d: %w", w, b, err)
							return
						}
						offs[w] = append(offs[w], got...)
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			scales := scrapeObs(c.Obs())[`jiffy_rpc_requests_total{role="client",method="ScaleUp"}`]
			if !dropped && scales != 0 {
				t.Errorf("client ScaleUp calls = %g, want 0: a writer grew a file the server had linked", scales)
			}
			if dropped && scales == 0 {
				t.Errorf("client ScaleUp calls = 0 with every signal dropped: who grew the file?")
			}

			f, err := c.OpenFile(ctx, "links/f")
			if err != nil {
				t.Fatal(err)
			}
			chunks, err := f.Chunks(ctx)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d chunks, %g client ScaleUp calls", chunks, scales)
			if chunks < 8 {
				t.Fatalf("file has %d chunks, want at least 8", chunks)
			}
			at := make(map[string]int) // record → where the scan found it
			for ci := 0; ci < chunks; ci++ {
				data, err := f.ReadChunk(ctx, ci)
				if err != nil {
					t.Fatal(err)
				}
				if len(data)%size != 0 {
					t.Fatalf("chunk %d holds %d bytes: a record straddles or was torn", ci, len(data))
				}
				for o := 0; o < len(data); o += size {
					key := string(data[o : o+size])
					if _, twice := at[key]; twice {
						t.Fatalf("record %q found twice", key[:5])
					}
					at[key] = ci*cfg.BlockSize + o
				}
			}
			if len(at) != writers*batches*per {
				t.Fatalf("scan found %d records, want %d", len(at), writers*batches*per)
			}
			for w := range offs {
				for i, off := range offs[w] {
					if got, ok := at[string(record(w, i))]; !ok || got != off {
						t.Fatalf("writer %d record %d: returned offset %d, found at %d (%v)", w, i, off, got, ok)
					}
				}
			}
		})
	}
}
