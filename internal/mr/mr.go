// Package mr implements the Map-Reduce programming model on Jiffy
// (§5.1 of the paper): map and reduce functions run as lightweight
// tasks (goroutines standing in for serverless functions), intermediate
// key-value pairs flow through Jiffy shuffle files — one per reduce
// partition, written concurrently by every map task via atomic record
// appends — and a master process launches tasks, tracks progress,
// retries failures and renews leases.
package mr

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"jiffy/internal/client"
	"jiffy/internal/core"
)

// KeyValue is one intermediate or output pair.
type KeyValue struct {
	Key, Value string
}

// MapFunc processes one input split, emitting intermediate pairs.
type MapFunc func(split string, emit func(key, value string)) error

// ReduceFunc merges all values observed for one key.
type ReduceFunc func(key string, values []string) (string, error)

// Config describes a MapReduce job.
type Config struct {
	// JobID names the job's address hierarchy (must be unique).
	JobID core.JobID
	// Inputs are the input splits, one map task each.
	Inputs []string
	// Reducers is the number of reduce partitions (and shuffle files).
	Reducers int
	// Map and Reduce are the user functions.
	Map    MapFunc
	Reduce ReduceFunc
	// MaxTaskRetries bounds re-execution of a failed task (default 2).
	MaxTaskRetries int
	// LeaseRenewInterval paces the master's lease renewals (default:
	// 250ms).
	LeaseRenewInterval time.Duration
}

// Result carries the job output.
type Result struct {
	// Output holds the reduced pairs.
	Output map[string]string
	// MapTasks / ReduceTasks count executed tasks including retries.
	MapTasks, ReduceTasks int
}

// Run executes a MapReduce job against a Jiffy cluster. The master
// (this function) registers the job, builds the hierarchy — a "map"
// stage node with one shuffle-file child per reduce partition — runs
// the phases, and deregisters the job.
func Run(ctx context.Context, c *client.Client, cfg Config) (*Result, error) {
	if cfg.JobID == "" || len(cfg.Inputs) == 0 || cfg.Reducers <= 0 ||
		cfg.Map == nil || cfg.Reduce == nil {
		return nil, fmt.Errorf("mr: incomplete job config")
	}
	if cfg.MaxTaskRetries <= 0 {
		cfg.MaxTaskRetries = 2
	}
	if cfg.LeaseRenewInterval <= 0 {
		cfg.LeaseRenewInterval = 250 * time.Millisecond
	}

	if err := c.RegisterJob(ctx, cfg.JobID); err != nil {
		return nil, fmt.Errorf("mr: register: %w", err)
	}
	defer c.DeregisterJob(ctx, cfg.JobID)

	// Hierarchy: jobID/map/shuffle-<r> — shuffle files are children of
	// the map stage, so renewing the map prefix keeps every shuffle
	// file alive (§3.2 propagation).
	root := core.Path(string(cfg.JobID))
	mapPrefix := root.MustChild("map")
	if _, _, err := c.CreatePrefix(ctx, mapPrefix, nil, core.DSNone, 0, 0); err != nil {
		return nil, fmt.Errorf("mr: create map prefix: %w", err)
	}
	shufflePaths := make([]core.Path, cfg.Reducers)
	for r := 0; r < cfg.Reducers; r++ {
		shufflePaths[r] = mapPrefix.MustChild(fmt.Sprintf("shuffle-%d", r))
		if _, _, err := c.CreatePrefix(ctx, shufflePaths[r], nil, core.DSFile, 1, 0); err != nil {
			return nil, fmt.Errorf("mr: create shuffle %d: %w", r, err)
		}
	}

	// The master renews the map prefix for the duration of the job.
	renewer := c.StartRenewer(cfg.LeaseRenewInterval, mapPrefix)
	defer renewer.Stop()

	res := &Result{Output: make(map[string]string)}

	// --- Map phase ---------------------------------------------------
	shuffles := make([]*client.File, cfg.Reducers)
	for r := range shuffles {
		f, err := c.OpenFile(ctx, shufflePaths[r])
		if err != nil {
			return nil, err
		}
		shuffles[r] = f
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	var mapTasks sync.Map
	for i, split := range cfg.Inputs {
		wg.Add(1)
		go func(i int, split string) {
			defer wg.Done()
			var err error
			for attempt := 0; attempt <= cfg.MaxTaskRetries; attempt++ {
				if err = runMapTask(ctx, cfg, shuffles, split); err == nil {
					mapTasks.Store(fmt.Sprintf("%d-%d", i, attempt), true)
					return
				}
			}
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("mr: map task %d: %w", i, err)
			}
			mu.Unlock()
		}(i, split)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	mapTasks.Range(func(_, _ interface{}) bool { res.MapTasks++; return true })

	// --- Reduce phase -------------------------------------------------
	outputs := make([]map[string]string, cfg.Reducers)
	for r := 0; r < cfg.Reducers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var out map[string]string
			var err error
			for attempt := 0; attempt <= cfg.MaxTaskRetries; attempt++ {
				if out, err = runReduceTask(ctx, cfg, c, shufflePaths[r]); err == nil {
					outputs[r] = out
					return
				}
			}
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("mr: reduce task %d: %w", r, err)
			}
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	res.ReduceTasks = cfg.Reducers
	for _, out := range outputs {
		for k, v := range out {
			res.Output[k] = v
		}
	}
	return res, nil
}

// partitionOf routes a key to its reduce partition.
func partitionOf(key string, reducers int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32()) % reducers
}

// appendBatch is how many records a map task appends to a shuffle file
// per call: one round trip per 64 records, not one per record.
const appendBatch = 64

// runMapTask executes one map task: apply Map to the split, buffer
// pairs per partition, and append the records to the shuffle files,
// appendBatch at a time.
func runMapTask(ctx context.Context, cfg Config, shuffles []*client.File, split string) error {
	buffers := make([][]KeyValue, cfg.Reducers)
	emit := func(key, value string) {
		r := partitionOf(key, cfg.Reducers)
		buffers[r] = append(buffers[r], KeyValue{Key: key, Value: value})
	}
	if err := cfg.Map(split, emit); err != nil {
		return err
	}
	records := make([][]byte, 0, appendBatch)
	for r, pairs := range buffers {
		for len(pairs) > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			n := min(len(pairs), appendBatch)
			records = records[:0]
			for _, kv := range pairs[:n] {
				records = append(records, encodeRecord(kv))
			}
			if _, err := shuffles[r].AppendBatch(ctx, records); err != nil {
				return err
			}
			pairs = pairs[n:]
		}
	}
	return nil
}

// runReduceTask reads one shuffle file, groups pairs by key and applies
// Reduce.
func runReduceTask(ctx context.Context, cfg Config, c *client.Client,
	path core.Path) (map[string]string, error) {

	f, err := c.OpenFile(ctx, path)
	if err != nil {
		return nil, err
	}
	pairs, err := ReadAllRecords(f)
	if err != nil {
		return nil, err
	}
	grouped := make(map[string][]string)
	for _, kv := range pairs {
		grouped[kv.Key] = append(grouped[kv.Key], kv.Value)
	}
	keys := make([]string, 0, len(grouped))
	for k := range grouped {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		v, err := cfg.Reduce(k, grouped[k])
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

// encodeRecord frames one pair: u32 total length, u32 key length, key,
// value. The leading length can never be zero, so a zero word marks
// end-of-chunk (file chunks are zero-filled past the written region).
func encodeRecord(kv KeyValue) []byte {
	total := 4 + len(kv.Key) + len(kv.Value)
	buf := make([]byte, 4+total)
	binary.BigEndian.PutUint32(buf[0:4], uint32(total))
	binary.BigEndian.PutUint32(buf[4:8], uint32(len(kv.Key)))
	copy(buf[8:], kv.Key)
	copy(buf[8+len(kv.Key):], kv.Value)
	return buf
}

// decodeRecords parses the records in one chunk's bytes, stopping at a
// zero length word or the end of written data.
func decodeRecords(data []byte) ([]KeyValue, error) {
	var out []KeyValue
	off := 0
	for off+4 <= len(data) {
		total := int(binary.BigEndian.Uint32(data[off : off+4]))
		if total == 0 {
			break // trailing gap in this chunk
		}
		off += 4
		if off+total > len(data) || total < 4 {
			return nil, fmt.Errorf("mr: corrupt shuffle record at %d", off-4)
		}
		klen := int(binary.BigEndian.Uint32(data[off : off+4]))
		if 4+klen > total {
			return nil, fmt.Errorf("mr: corrupt key length at %d", off)
		}
		key := string(data[off+4 : off+4+klen])
		val := string(data[off+4+klen : off+total])
		out = append(out, KeyValue{Key: key, Value: val})
		off += total
	}
	return out, nil
}

// ReadAllRecords scans a shuffle file chunk by chunk; records never
// straddle chunks, so per-chunk parsing is complete.
func ReadAllRecords(f *client.File) ([]KeyValue, error) {
	n, err := f.Chunks(context.Background())
	if err != nil {
		return nil, err
	}
	var all []KeyValue
	for ci := 0; ci < n; ci++ {
		data, err := f.ReadChunk(context.Background(), ci)
		if err != nil {
			return nil, err
		}
		recs, err := decodeRecords(data)
		if err != nil {
			return nil, err
		}
		all = append(all, recs...)
	}
	return all, nil
}
