package main

// The metric catalogue. BENCHMARK.json repeats it in the contract's schema
// and TestBenchmarkJSONMatchesCatalogue keeps the two in step.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd are the metrics a user of the system sees; every workload reports
// every one (the contract requires it), and each repeats from run to run on
// the reference box well inside its bound (README.md, "Calibration"). Three
// of the issue's nine are per-layer metrics instead, still printed and still
// compared by the repeat tool but not gated: wal_bytes_per_user_byte and
// recover_s exist on embed_durable alone (wal.bytes_per_user_byte,
// wal.recover_s), and txn_p99_us does not repeat — its spread over ten runs
// reached 37 % on server_open and 28 % on embed_durable, beyond the largest
// bound the contract allows, and the issue's rule for such a metric is to
// demote it.
var endToEnd = []metricDef{
	// open + create + load + warm-up (+ listener up, + flush of the logged load); median of the run's three to nine set-ups
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// committed transactions per second in the best sub-window but one (embed_durable: fixed work ÷ elapsed; server_open: the achieved rate)
	{Name: "txn_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	// caller-observed latency including retries, median, best sub-window but one (server_open: from when the request was due)
	{Name: "txn_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	// process user+system CPU (getrusage) ÷ commits, best sub-window but one
	{Name: "cpu_us_per_txn", Unit: "us", Better: "lower", Bound: 0.25},
	// MemStats.Mallocs ÷ commits, best sub-window but one
	{Name: "allocs_per_txn", Unit: "count", Better: "lower", Bound: 0.10},
	// HeapInuse after stop and runtime.GC() ÷ live user bytes
	{Name: "space_amp", Unit: "ratio", Better: "lower", Bound: 0.20},
}

// perLayer are the single-layer metrics of the traced run; layer = module
// name. README.md's interaction table says which end-to-end metric on which
// workload each should move. A metric that does not apply to a workload
// reads 0 there.
var perLayer = []metricDef{
	// Tail latency, caller-observed: the best sub-window but one, and the whole window.
	{Name: "txn_p99_us", Unit: "us", Better: "lower"},
	{Name: "txn_p99_window_us", Unit: "us", Better: "lower"},
	// The ladder: the identical transaction timed one layer further out each time.
	{Name: "ladder.core_ns_per_txn", Unit: "ns", Better: "lower"},
	{Name: "ladder.api_ns_per_txn", Unit: "ns", Better: "lower"},
	{Name: "ladder.wal_ns_per_txn", Unit: "ns", Better: "lower"},
	{Name: "ladder.tcp_ns_per_txn", Unit: "ns", Better: "lower"},
	{Name: "ladder.core_allocs_per_txn", Unit: "count", Better: "lower"},
	{Name: "ladder.api_allocs_per_txn", Unit: "count", Better: "lower"},
	{Name: "ladder.wal_allocs_per_txn", Unit: "count", Better: "lower"},
	{Name: "ladder.tcp_allocs_per_txn", Unit: "count", Better: "lower"},
	// core
	{Name: "core.exec_us", Unit: "us", Better: "lower"},
	{Name: "core.commit_self_us", Unit: "us", Better: "lower"},
	{Name: "core.retries_per_txn", Unit: "count", Better: "lower"},
	{Name: "core.abort_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.abort_time_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.max_backoff_us", Unit: "us", Better: "lower"},
	{Name: "core.empty_txn_ns", Unit: "ns", Better: "lower"},
	{Name: "core.read_ns", Unit: "ns", Better: "lower"},
	{Name: "core.update_ns", Unit: "ns", Better: "lower"},
	{Name: "core.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "core.delete_ns", Unit: "ns", Better: "lower"},
	{Name: "core.gc_space_overhead", Unit: "ratio", Better: "lower"},
	{Name: "core.spurious_notfound_per_mtxn", Unit: "count", Better: "lower"},
	// index
	{Name: "index.hash_get_ns", Unit: "ns", Better: "lower"},
	{Name: "index.btree_get_ns", Unit: "ns", Better: "lower"},
	{Name: "index.btree_insert_ns", Unit: "ns", Better: "lower"},
	{Name: "index.btree_delete_ns", Unit: "ns", Better: "lower"},
	{Name: "index.btree_scan_ns_per_row", Unit: "ns", Better: "lower"},
	// storage
	{Name: "storage.load_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "storage.heap_bytes_per_record", Unit: "B", Better: "lower"},
	// wal
	{Name: "wal.fsync_per_txn", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_txn", Unit: "B", Better: "lower"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "wal.flush_barrier_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "wal.recover_s", Unit: "s", Better: "lower"},
	{Name: "wal.recover_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wal.recovered_index_missing", Unit: "count", Better: "lower"},
	{Name: "wal.stage_ns_per_txn", Unit: "ns", Better: "lower"},
	// server and client
	{Name: "server.ping_rtt_us", Unit: "us", Better: "lower"},
	{Name: "server.exec_rtt_us", Unit: "us", Better: "lower"},
	{Name: "server.handoff_us", Unit: "us", Better: "lower"},
	{Name: "server.commit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.abort_exhausted_frac", Unit: "ratio", Better: "lower"},
	{Name: "server.overload_reject_frac", Unit: "ratio", Better: "lower"},
	{Name: "server.txn_latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.build_ns_per_txn", Unit: "ns", Better: "lower"},
	// open-loop validity
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "gen.achieved_rate_frac", Unit: "ratio", Better: "higher"},
	{Name: "slo_miss_frac", Unit: "ratio", Better: "lower"},
	// tracing
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

var (
	endToEndByName = byName(endToEnd)
	perLayerByName = byName(perLayer)
)

func byName(defs []metricDef) map[string]metricDef {
	m := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		m[d.Name] = d
	}
	return m
}
