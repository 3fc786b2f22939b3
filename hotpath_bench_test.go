package jiffy_test

// Hot-path single-op vs batched micro-benchmarks and the large-transfer
// ones. The bodies live in internal/bench/hotpath so jiffy-regress
// -overhead can A/B the identical batched code with telemetry on and
// off; these wrappers expose them to the standard `go test -bench`
// flow:
//
//	go test -bench 'KVPut|KVGet|FileAppend|QueueEnqueue' -benchmem
//	go test -bench Large -benchmem

import (
	"testing"

	"jiffy/internal/bench/hotpath"
)

func hotpathBench(b *testing.B, name string) {
	b.Helper()
	for _, bench := range hotpath.Benches(false) {
		if bench.Name == name {
			bench.F(b)
			return
		}
	}
	b.Fatalf("no hotpath benchmark named %q", name)
}

func BenchmarkKVPutSingle(b *testing.B)        { hotpathBench(b, "KVPutSingle") }
func BenchmarkKVPutBatch(b *testing.B)         { hotpathBench(b, "KVPutBatch") }
func BenchmarkKVGetSingle(b *testing.B)        { hotpathBench(b, "KVGetSingle") }
func BenchmarkKVGetBatch(b *testing.B)         { hotpathBench(b, "KVGetBatch") }
func BenchmarkFileAppendSingle(b *testing.B)   { hotpathBench(b, "FileAppendSingle") }
func BenchmarkFileAppendBatch(b *testing.B)    { hotpathBench(b, "FileAppendBatch") }
func BenchmarkQueueEnqueueSingle(b *testing.B) { hotpathBench(b, "QueueEnqueueSingle") }
func BenchmarkQueueEnqueueBatch(b *testing.B)  { hotpathBench(b, "QueueEnqueueBatch") }

func BenchmarkLargeFileRead64K(b *testing.B)  { hotpathBench(b, "FileRead64K") }
func BenchmarkLargeFileRead1M(b *testing.B)   { hotpathBench(b, "FileRead1M") }
func BenchmarkLargeFileWrite64K(b *testing.B) { hotpathBench(b, "FileWrite64K") }
func BenchmarkLargeFileWrite1M(b *testing.B)  { hotpathBench(b, "FileWrite1M") }
func BenchmarkLargeKVGet64K(b *testing.B)     { hotpathBench(b, "KVGet64K") }
