package main

// metric names one reported number and its unit. The lists below are
// the benchmark's schema: BENCHMARK.json repeats them, and the schema
// test fails when the two disagree.
type metric struct {
	Name string
	Unit string
	// Bound is the share of the parent's median by which an
	// end-to-end metric may worsen before a change counts as a
	// regression; per-layer metrics have none.
	Bound float64
	// HigherIsBetter is set for throughput; everything else is better
	// lower.
	HigherIsBetter bool
}

// endToEnd lists what a user of the store sees, in the order printed.
// Every workload reports every one of them, taken with tracing off.
// failed_op_share is not in the list because it must be 0: it is
// reported as "failed" over "attempted" in the result line and any
// failure makes the command exit non-zero.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Bound: 0.25, HigherIsBetter: true},
	{Name: "read_p50_us", Unit: "us", Bound: 0.25},
	{Name: "write_p50_us", Unit: "us", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Bound: 0.25},
	{Name: "alloc_bytes_per_op", Unit: "B", Bound: 0.03},
	{Name: "allocs_per_op", Unit: "1", Bound: 0.03},
	{Name: "heap_bytes_per_user_byte", Unit: "ratio", Bound: 0.05},
}

// perLayer lists the numbers of single layers, reported by a traced
// run (-trace 1). The probe numbers are the same whichever workload
// the run names; client.read_p99_us, client.write_p99_us,
// client.retries, client.map_refreshes, controller.scale_ups,
// process.peak_rss_mb and trace.overhead_share come from the traced
// round of that workload. The two p99s were end-to-end candidates and
// failed the self-check (their run-to-run spread exceeded 10 %), so
// they are reported here, without a bound.
var perLayer = []metric{
	{Name: "wire.frame_small_ns", Unit: "ns"},
	{Name: "wire.frame_small_allocs", Unit: "1"},
	{Name: "wire.frame_1m_us", Unit: "us"},
	{Name: "wire.frame_1m_alloc_bytes", Unit: "B"},

	{Name: "rpc.null_call_tcp_us", Unit: "us"},
	{Name: "rpc.null_call_tcp_p99_us", Unit: "us"},
	{Name: "rpc.null_call_mem_us", Unit: "us"},
	{Name: "rpc.null_call_allocs", Unit: "1"},

	{Name: "ds.batch_codec_ns_per_op", Unit: "ns"},
	{Name: "ds.batch_codec_allocs", Unit: "1"},

	{Name: "cuckoo.get_ns", Unit: "ns"},
	{Name: "cuckoo.put_ns", Unit: "ns"},
	{Name: "cuckoo.bytes_per_entry", Unit: "B"},

	{Name: "blockstore.apply_get_ns", Unit: "ns"},
	{Name: "blockstore.apply_put_ns", Unit: "ns"},
	{Name: "blockstore.apply_write1m_us", Unit: "us"},
	{Name: "blockstore.apply_write1m_alloc_bytes", Unit: "B"},
	{Name: "blockstore.apply_append_batch_ns_per_op", Unit: "ns"},

	{Name: "qos.admit_inactive_ns", Unit: "ns"},
	{Name: "qos.admit_active_ns", Unit: "ns"},

	{Name: "client.get_p50_us", Unit: "us"},
	{Name: "client.put_p50_us", Unit: "us"},
	{Name: "client.get_allocs", Unit: "1"},
	{Name: "client.put_allocs", Unit: "1"},
	{Name: "client.multiput64_us_per_op", Unit: "us"},
	{Name: "client.file_read1m_us", Unit: "us"},
	{Name: "client.file_write1m_us", Unit: "us"},
	{Name: "client.file_write1m_alloc_bytes", Unit: "B"},
	{Name: "client.enqueue_us", Unit: "us"},
	{Name: "client.dequeue_us", Unit: "us"},
	{Name: "client.self_get_us", Unit: "us"},
	{Name: "client.read_p99_us", Unit: "us"},
	{Name: "client.write_p99_us", Unit: "us"},
	{Name: "client.retries", Unit: "count"},
	{Name: "client.map_refreshes", Unit: "count"},

	{Name: "server.forward_chain3_write1m_us", Unit: "us"},
	{Name: "server.forward_chain3_put_us", Unit: "us"},

	{Name: "controller.create_prefix_us", Unit: "us"},
	{Name: "controller.remove_prefix_us", Unit: "us"},
	{Name: "controller.renew_us", Unit: "us"},
	{Name: "controller.lease_info_us", Unit: "us"},
	{Name: "controller.create_hierarchy16_us", Unit: "us"},
	{Name: "controller.repl_flush_us", Unit: "us"},
	{Name: "controller.scale_up_us", Unit: "us"},
	{Name: "controller.scale_ups", Unit: "count"},

	{Name: "hierarchy.renew_1k_ns", Unit: "ns"},
	{Name: "hierarchy.resolve_ns", Unit: "ns"},
	{Name: "hierarchy.metadata_bytes_per_node", Unit: "B"},
	{Name: "alloc.allocate_free_ns", Unit: "ns"},

	{Name: "tier.codec_1m_us", Unit: "us"},
	{Name: "tier.plan_1k_us", Unit: "us"},
	{Name: "persist.mem_put_get_64k_us", Unit: "us"},

	{Name: "mr.job_ms", Unit: "ms"},
	{Name: "dataflow.pipeline_ms", Unit: "ms"},

	{Name: "budget.kv_get_residual_share", Unit: "ratio"},
	{Name: "budget.file_write1m_residual_share", Unit: "ratio"},
	{Name: "process.peak_rss_mb", Unit: "MB"},
	{Name: "trace.overhead_share", Unit: "ratio"},
}
