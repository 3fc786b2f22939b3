package client

import (
	"context"
	"errors"
	"fmt"

	"jiffy/internal/core"
	"jiffy/internal/ds"
)

// Batched multi-op API. A KV or queue batch hands its ops to the pipeline's
// batch driver (handle.runBatch), which groups them by destination
// server, ships each group as one MethodDataOpBatch frame and recovers
// exactly as the single-op driver does — a batch spanning a
// repartition-in-flight block is split and retried against the new
// map. Failures are attributed per op via MultiError — a batch never
// reports silent partial success. AppendBatch sends its records as
// runs of appends through handle.run instead.

// MultiError carries the per-op outcomes of a batched call: Errs[i] is
// nil when op i succeeded. It unwraps to the underlying sentinel
// errors, so errors.Is(err, core.ErrNotFound) works on the aggregate.
type MultiError struct {
	Errs []error
}

// Error summarizes the failure count and the first failing op.
func (e *MultiError) Error() string {
	failed, total := 0, len(e.Errs)
	var first error
	firstIdx := -1
	for i, err := range e.Errs {
		if err != nil {
			failed++
			if first == nil {
				first, firstIdx = err, i
			}
		}
	}
	return fmt.Sprintf("client: %d/%d batched ops failed (op %d: %v)",
		failed, total, firstIdx, first)
}

// Unwrap exposes the non-nil per-op errors to errors.Is/As.
func (e *MultiError) Unwrap() []error {
	out := make([]error, 0, len(e.Errs))
	for _, err := range e.Errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

// multiErr folds a per-op error vector into nil (all succeeded) or a
// *MultiError.
func multiErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return &MultiError{Errs: errs}
		}
	}
	return nil
}

// KVPair is one key-value pair in a MultiPut.
type KVPair struct {
	Key   string
	Value []byte
}

// MultiPut stores many pairs in one round trip per destination server.
// On partial failure it returns a *MultiError indexed like pairs.
func (k *KV) MultiPut(ctx context.Context, pairs []KVPair) error {
	keys := make([]string, len(pairs))
	vals := make([][]byte, len(pairs))
	for i, p := range pairs {
		keys[i], vals[i] = p.Key, p.Value
	}
	return k.h.runBatch(ctx, core.OpPut, keys, vals, nil)
}

// MultiGet fetches many keys in one round trip per destination server.
// The returned values align with keys; a key whose lookup failed (e.g.
// ErrNotFound) has a nil value and its error recorded in the returned
// *MultiError.
func (k *KV) MultiGet(ctx context.Context, keys []string) ([][]byte, error) {
	vals := make([][]byte, len(keys))
	err := k.h.runBatch(ctx, core.OpGet, keys, nil, func(i int, res [][]byte) error {
		if len(res) > 0 {
			vals[i] = res[0]
		}
		return nil
	})
	return vals, err
}

// AppendBatch appends many records to the file's tail chunk, returning
// the absolute offset each record landed at (aligned with records).
// Like AppendRecord, records never straddle chunks. The records go as
// runs, each one append op through the single-op pipeline carrying as
// many records as a chunk can hold (fitRun). The server lands a prefix
// of a run back to back and answers where it starts and how long it
// is; the rest goes as the next run — to the full chunk's link, or,
// when the server has none, to the chunk a scale-up adds. A record
// refused on its own account (ErrTooLarge) fails alone; any other
// failure fails every record not yet placed. On partial failure the
// error is a *MultiError indexed like records.
func (f *File) AppendBatch(ctx context.Context, records [][]byte) ([]int, error) {
	cs := f.chunkSize()
	if cs <= 0 {
		return nil, fmt.Errorf("client: file has no chunk size")
	}
	offs := make([]int, len(records))
	var errs []error
	for lo := 0; lo < len(records); {
		run := records[lo : lo+fitRun(records[lo:], cs)]
		off, n, err := f.appendRun(ctx, cs, run)
		if err != nil {
			if errs == nil {
				errs = make([]error, len(records))
			}
			n = len(records) - lo
			if errors.Is(err, core.ErrTooLarge) {
				n = 1
			}
			for i := range n {
				errs[lo+i] = err
			}
			lo += n
			continue
		}
		for _, r := range run[:n] {
			offs[lo] = off
			off += len(r)
			lo++
		}
	}
	return offs, multiErr(errs)
}

// fitRun is how many of records, from the first, go as one run: what a
// chunk of cs bytes can hold, at most ds.MaxBatchOps, and at least the
// first record, which the server refuses if no chunk can hold it.
func fitRun(records [][]byte, cs int) int {
	n, size := 1, len(records[0])
	for n < len(records) && n < ds.MaxBatchOps && size+len(records[n]) <= cs {
		size += len(records[n])
		n++
	}
	return n
}

// EnqueueBatch appends many items to the queue tail in one round trip.
// Sealed-segment redirects advance the cached tail and retry the
// unplaced suffix, mirroring Enqueue; on partial failure the error is
// a *MultiError indexed like items.
func (q *Queue) EnqueueBatch(ctx context.Context, items [][]byte) error {
	return q.h.runBatch(ctx, core.OpEnqueue, nil, items, nil)
}
