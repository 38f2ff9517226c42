package main

// Frozen workload parameters. Later changes refer to results by workload and
// metric name ("txn_per_s on embed_write_skew"), so nothing here may change
// without re-measuring every baseline; BENCHMARK.json's "why" lines and
// README.md repeat the values for readers.

const (
	// defaultRunSeconds is BENCHMARK.json's run_seconds: the measured window,
	// cut into subWindows equal sub-windows, after the fixed 2 s ramp. The
	// issue asked for 15 s; the contract's total-time cap (136 runs in
	// 3420 s, set-up included) forces 10 s.
	defaultRunSeconds = 10
	defaultSeed       = 1

	// durablePerWorker is embed_durable's fixed work per worker at
	// run_seconds = 10, calibrated once on the reference box (2 × Xeon
	// 2.1 GHz) so the phase takes about 10 s and, with the 10 s recovery of
	// the log it writes, the whole run stays under 30 s. The issue's
	// provisional 1 500 000 took 13.5 s plus a 15 s recovery.
	durablePerWorker = 1_100_000

	// openRatePerConn is server_open's offered rate per connection: 2 × 10 000
	// = 20 000 txn/s, a third of the seed's closed-loop capacity on the
	// reference box (63 k txn/s). Frozen, never derived at run time. The
	// issue's provisional 5 000 leaves the process idle between requests, and
	// the median latency then takes one of two values from run to run (41–48
	// or 73–80 µs); at 15 000 the p99 crosses the 1 ms limit in some runs; at
	// 10 000 the median and the CPU cost repeat within 3 %.
	openRatePerConn = 10_000
)

var (
	readUniform = ycsbParams{workers: 2, records: 1_000_000, recordSize: 100, reqs: 16, rmwFrac: 0.05, theta: 0}
	writeSkew   = ycsbParams{workers: 2, records: 1_000_000, recordSize: 100, reqs: 16, rmwFrac: 0.50, theta: 0.99}
	durable     = ycsbParams{workers: 2, records: 1_000_000, recordSize: 100, reqs: 4, rmwFrac: 0.50, theta: 0, distinct: true}
	// ladderTxn is the identical transaction timed at every rung: the
	// server workloads' shape (4 requests, half RMW, uniform, 100 k × 64 B),
	// one worker or connection.
	ladderTxn = ycsbParams{workers: 1, records: srvKeys, recordSize: srvValueSize, reqs: srvStmts, rmwFrac: 0.50, theta: 0}
)

// workloads lists the six workloads in their final order; the "why" of each
// is what BENCHMARK.json carries.
var workloads = []workload{
	{
		name:  "embed_read_uniform",
		why:   "cicada API, 2 workers, 1M x 100B (beyond LLC), 16 req/txn, 95% read, theta=0: per-txn fixed cost with near-zero conflicts; the bypass workload for contention work",
		setup: setupYCSB(readUniform),
	},
	{
		name:  "embed_write_skew",
		why:   "same table, 16 req/txn, 50% RMW, theta=0.99: hot set in cache; validation, early abort, backoff, heat tables and hot-chain GC do the work",
		setup: setupYCSB(writeSkew),
	},
	{
		name:  "embed_queue_1w",
		why:   "1 worker, 100k x 64B rows behind a B-tree: insert tail, get+delete head, scan 20 every 4th txn; the insert/delete/record-reuse/scan paths YCSB never touches",
		setup: setupQueue,
	},
	{
		name:  "embed_durable",
		why:   "2 workers, WAL (1 ms group commit, real fsync), logged 1M load, fixed 2 x 1.1M txns of 4 req 50% RMW, then Flush, Recover, Close: wal does the work, log volume constant",
		setup: setupDurable(durable, durablePerWorker),
	},
	{
		name:  "server_closed",
		why:   "server.New+Serve on loopback TCP in-process, 1 engine worker, 100k x 64B, 2 client conns closed loop, 4 stmts/txn 50% Put: capacity of the hand-off path",
		setup: setupServer(0),
	},
	{
		name:  "server_open",
		why:   "same server, open loop: 2 conns x 10000 txn/s fixed schedule, latency timed from when each request was due; p99 at a fixed offered rate, limit 1 ms",
		setup: setupServer(openRatePerConn),
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
