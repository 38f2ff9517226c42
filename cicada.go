// Package cicada is a single-node multi-core in-memory transactional
// database with serializability, implementing the design of "Cicada:
// Dependably Fast Multi-Core In-Memory Transactions" (Lim, Kaminsky,
// Andersen — SIGMOD 2017): optimistic multi-version concurrency control
// with multi-clock timestamp allocation, best-effort inlining, rapid
// garbage collection, and globally coordinated contention regulation.
//
// # Quick start
//
//	db := cicada.Open(cicada.DefaultConfig(4)) // 4 worker threads
//	accounts := db.CreateTable("accounts")
//	byID := db.CreateHashIndex("accounts_by_id", 1024, true)
//
//	w := db.Worker(0) // one Worker per goroutine
//	err := w.Run(func(tx *cicada.Txn) error {
//	    rid, buf, err := tx.Insert(accounts, 8)
//	    if err != nil {
//	        return err
//	    }
//	    binary.LittleEndian.PutUint64(buf, 100)
//	    return byID.Insert(tx, 42, rid)
//	})
//
// Each worker owns a loosely synchronized clock; transactions are timestamped
// at begin, execute without global writes, and validate at commit. Run
// retries on conflicts with contention-regulated backoff. Read-only
// transactions (RunReadOnly) run against a recent consistent snapshot and
// never abort or validate.
package cicada

import (
	"errors"
	"io"
	"net/http"
	"time"

	"cicada/internal/clock"
	"cicada/internal/core"
	"cicada/internal/index"
	"cicada/internal/storage"
	"cicada/internal/telemetry"
	"cicada/internal/trace"
	"cicada/internal/wal"
)

// RecordID locates a record within a Table. Indexes map keys to RecordIDs.
type RecordID = storage.RecordID

// Timestamp is a Cicada transaction timestamp (56-bit clock, 8-bit worker).
type Timestamp = clock.Timestamp

// AbortReason classifies concurrency-control aborts; see
// Stats.AbortsByReason for the name taxonomy.
type AbortReason = core.AbortReason

// AbortedError is returned by Worker.RunLimited when the retry budget is
// exhausted; it carries the final attempt's abort reason and satisfies
// errors.Is(err, ErrAborted).
type AbortedError = core.AbortedError

// Errors returned by transaction operations.
var (
	// ErrAborted reports a concurrency conflict; Worker.Run retries it.
	ErrAborted = core.ErrAborted
	// ErrNotFound reports a missing record or index key.
	ErrNotFound = core.ErrNotFound
	// ErrReadOnly reports a write inside a read-only transaction.
	ErrReadOnly = core.ErrReadOnly
	// ErrDuplicate reports a unique-index violation.
	ErrDuplicate = index.ErrDuplicate
)

// Config selects engine parameters. DefaultConfig returns the paper's
// defaults; zero-valued durations keep them.
type Config struct {
	// Workers is the number of worker threads (goroutines) that will run
	// transactions; worker 0 doubles as the maintenance leader.
	Workers int
	// Inlining enables best-effort inlining of small records (§3.3).
	Inlining bool
	// GCInterval bounds how often each worker declares quiescence and
	// collects garbage (§3.8). Default 10 µs.
	GCInterval time.Duration
	// FixedMaxBackoff, when ≥ 0, disables contention regulation's hill
	// climbing and uses the given maximum backoff (§3.9). Negative selects
	// automatic regulation.
	FixedMaxBackoff time.Duration
	// CentralizedClock replaces multi-clock timestamping with a shared
	// atomic counter, as conventional MVCC schemes use (for comparison).
	CentralizedClock bool
	// PendingWaitLimit bounds the spin-wait on a PENDING version (§3.2):
	// after this many status checks the waiter aborts with the
	// pending_wait reason instead of spinning further. 0 (the default)
	// waits indefinitely, as the paper specifies.
	PendingWaitLimit int
	// Telemetry enables the metrics registry and the aborted-transaction
	// flight recorder (see docs/OBSERVABILITY.md); scrape them with
	// MetricsHandler or MetricValues. Off by default: the engine then
	// keeps only its always-on outcome counters and skips all hot-path
	// latency timing.
	Telemetry bool
	// Trace enables the per-worker transaction tracer (docs/OBSERVABILITY.md
	// "Tracing"): sampled txn/phase/wait events and always-on abort events
	// in fixed-size ring buffers, exported as Chrome trace-event JSON via
	// WriteTrace or /debug/cicada-trace on MetricsHandler, plus a per-key
	// contention report via Contention. Off by default; when off the engine
	// adds no trace checks at all.
	Trace bool
	// TraceSampleEvery traces every Nth transaction per worker (aborts are
	// always traced). 0 means the default of 64; 1 traces everything.
	TraceSampleEvery int
	// TraceBufferEvents is each worker ring's capacity in events
	// (~48 B each). 0 means the default of 8192.
	TraceBufferEvents int

	// NoWaitPending, NoWriteLatestRule, NoSortWriteSet and NoPreCheck
	// disable individual performance optimizations (Table 2 ablations).
	NoWaitPending     bool
	NoWriteLatestRule bool
	NoSortWriteSet    bool
	NoPreCheck        bool

	// HeatTableSize is each worker's per-record heat table size in slots
	// (rounded up to a power of two; see docs/PERFORMANCE.md "Adaptive
	// contention management"). 0 means the default of 1024.
	HeatTableSize int
	// HeatHotThreshold is the decayed heat at or above which a record is
	// treated as hot (forces validation checks, earns full backoff).
	// 0 means the default of 8.
	HeatHotThreshold int
	// HeatRTSSlackTicks, when > 0, lets reads of cold records over-raise the
	// version's read timestamp by this many clock ticks and skip the rts CAS
	// while the raised value still covers them. Serializability is
	// preserved (over-raising only makes writers abort conservatively);
	// the cost is slightly more conservative writes near cold reads.
	// 0 (the default) disables coarse rts maintenance.
	HeatRTSSlackTicks uint64
	// NoHeatTracking disables per-record heat tracking entirely: no heat
	// tables, no heat-forced validation checks, no heat-weighted backoff,
	// no coarse rts maintenance.
	NoHeatTracking bool
	// NoHeatBackoff keeps heat tracking but disables heat-weighted backoff
	// (every abort uses the regulator's full randomized maximum).
	NoHeatBackoff bool
}

// DefaultConfig returns the paper's default configuration for n workers.
func DefaultConfig(n int) Config {
	return Config{Workers: n, Inlining: true, FixedMaxBackoff: -1}
}

// DB is a Cicada database instance.
type DB struct {
	eng     *core.Engine
	workers []Worker
	wal     *wal.Manager
	reg     *telemetry.Registry
	tracer  *trace.Tracer
}

// Open creates a database. Tables and indexes must be created before
// transactions run.
func Open(cfg Config) *DB {
	opts := core.DefaultOptions(cfg.Workers)
	opts.Inlining = cfg.Inlining
	opts.NoWaitPending = cfg.NoWaitPending
	opts.NoWriteLatestRule = cfg.NoWriteLatestRule
	opts.NoSortWriteSet = cfg.NoSortWriteSet
	opts.NoPreCheck = cfg.NoPreCheck
	if cfg.GCInterval > 0 {
		opts.GCInterval = cfg.GCInterval
	}
	if cfg.FixedMaxBackoff >= 0 {
		opts.FixedMaxBackoff = cfg.FixedMaxBackoff
	} else {
		opts.FixedMaxBackoff = -1
	}
	opts.Clock.Centralized = cfg.CentralizedClock
	opts.PendingWaitLimit = cfg.PendingWaitLimit
	if cfg.HeatTableSize > 0 {
		opts.HeatTableSize = cfg.HeatTableSize
	}
	if cfg.HeatHotThreshold > 0 {
		opts.HeatHotThreshold = cfg.HeatHotThreshold
	}
	opts.HeatRTSSlackTicks = cfg.HeatRTSSlackTicks
	opts.NoHeatTracking = cfg.NoHeatTracking
	opts.NoHeatBackoff = cfg.NoHeatBackoff
	db := &DB{}
	if cfg.Telemetry {
		db.reg = telemetry.NewRegistry(cfg.Workers)
		opts.Metrics = db.reg
	}
	if cfg.Trace {
		db.tracer = trace.New(trace.Options{
			Workers:     cfg.Workers,
			Capacity:    cfg.TraceBufferEvents,
			SampleEvery: cfg.TraceSampleEvery,
		})
		db.tracer.SetEnabled(true)
		opts.Trace = db.tracer
		if db.reg != nil {
			db.tracer.RegisterMetrics(db.reg)
		}
	}
	db.eng = core.NewEngine(opts)
	db.workers = make([]Worker, cfg.Workers)
	for i := range db.workers {
		cw := db.eng.Worker(i)
		db.workers[i] = Worker{w: cw, tx: Txn{t: cw.Txn()}}
	}
	return db
}

// Table is a handle to a Cicada table: an expandable array of multi-version
// records addressed by RecordID.
type Table struct {
	t *core.Table
}

// Name returns the table name.
func (t *Table) Name() string { return t.t.Storage().Name() }

// CreateTable registers a new table. It panics on a duplicate name.
func (db *DB) CreateTable(name string) *Table {
	return &Table{t: db.eng.CreateTable(name)}
}

// Worker returns the execution handle for worker id ∈ [0, Workers). Each
// Worker must be used by at most one goroutine at a time.
func (db *DB) Worker(id int) *Worker { return &db.workers[id] }

// Workers returns the configured worker count.
func (db *DB) Workers() int { return db.eng.Options().Workers }

// Stats aggregates transaction counters across workers. Safe to call while
// workers run: every counter is read atomically (slightly stale, never
// torn), though the fields are mutually consistent only at quiescence.
func (db *DB) Stats() Stats { return statsFromCore(db.eng.Stats()) }

func statsFromCore(s core.Stats) Stats {
	out := Stats{
		Commits:        s.Commits,
		Aborts:         s.Aborts,
		UserAborts:     s.UserAborts,
		AbortTime:      s.AbortTime,
		BusyTime:       s.BusyTime,
		AbortsByReason: make(map[string]uint64, core.NumAbortReasons),
	}
	for r := core.AbortReason(0); r < core.NumAbortReasons; r++ {
		if n := s.AbortsByReason[r]; n > 0 {
			out.AbortsByReason[r.String()] = n
		}
	}
	return out
}

// CommittedTxns returns the live committed-transaction count (safe to call
// concurrently).
func (db *DB) CommittedTxns() uint64 { return db.eng.CommitsLive() }

// MaxBackoff returns the contention regulator's current globally
// coordinated maximum backoff (§3.9).
func (db *DB) MaxBackoff() time.Duration { return db.eng.MaxBackoff() }

// SpaceOverhead returns total versions / total records − 1 (§4.6, Fig 9).
func (db *DB) SpaceOverhead() float64 { return db.eng.SpaceOverhead() }

// Engine exposes the internal engine for benchmarks within this module.
func (db *DB) Engine() *core.Engine { return db.eng }

// Telemetry exposes the metrics registry for integrations within this
// module (the network server registers its server_* families on it so one
// scrape covers engine and server); nil unless Config.Telemetry was set.
func (db *DB) Telemetry() *telemetry.Registry { return db.reg }

// MetricsHandler returns an http.Handler serving the database's metrics:
// /metrics (Prometheus text), /debug/vars (expvar-style JSON), and
// /debug/txntrace (recent aborted transactions, newest first). With
// Config.Trace it additionally serves /debug/cicada-trace (Chrome
// trace-event JSON; ?contention=1 for the hot-key report). It returns nil
// unless Config.Telemetry was set.
func (db *DB) MetricsHandler() http.Handler {
	if db.reg == nil {
		return nil
	}
	l := telemetry.NewLive()
	l.Set(db.reg)
	if db.tracer != nil {
		l.Handle("/debug/cicada-trace", trace.Handler(db.tracer))
	}
	return l.Handler()
}

// WriteTrace writes the tracer's current contents as Chrome trace-event
// JSON (loadable in Perfetto; the per-key contention report is embedded
// under "cicadaContention"). It fails unless Config.Trace was set.
func (db *DB) WriteTrace(w io.Writer) error {
	if db.tracer == nil {
		return errors.New("cicada: tracing not enabled (Config.Trace)")
	}
	return db.tracer.WriteChromeTrace(w)
}

// ContentionReport is the tracer's per-key heat attribution; see
// docs/OBSERVABILITY.md "Tracing".
type ContentionReport = trace.ContentionReport

// Contention folds the trace's pending-wait and abort events into per-key
// heat and returns the top-k keys (k ≤ 0 selects the default of 16). It
// returns a zero report unless Config.Trace was set.
func (db *DB) Contention(k int) ContentionReport {
	if db.tracer == nil {
		return ContentionReport{}
	}
	return db.tracer.Contention(k)
}

// Tracer exposes the internal tracer for benchmarks within this module; nil
// unless Config.Trace was set.
func (db *DB) Tracer() *trace.Tracer { return db.tracer }

// MetricValues returns a flat snapshot of every metric, labels folded into
// the key (see docs/OBSERVABILITY.md for the name list). It returns nil
// unless Config.Telemetry was set.
func (db *DB) MetricValues() map[string]float64 {
	if db.reg == nil {
		return nil
	}
	return db.reg.Values()
}

// Stats are aggregate transaction outcome counters.
type Stats struct {
	Commits    uint64
	Aborts     uint64
	UserAborts uint64
	AbortTime  time.Duration
	BusyTime   time.Duration
	// AbortsByReason splits the aborts by cause, keyed by reason name
	// (rts_early, write_latest, precheck, validation, pending_wait,
	// precommit_hook, logger, user). Zero-count reasons are omitted. The
	// "user" entry mirrors UserAborts and is not part of Aborts; all
	// other entries sum to Aborts.
	AbortsByReason map[string]uint64
}

// AbortRate returns aborts / (aborts + commits).
func (s Stats) AbortRate() float64 {
	total := s.Aborts + s.Commits
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}

// Worker is a per-thread execution context.
type Worker struct {
	w *core.Worker
	// tx is the one transaction handle every Run* passes to fn, bound at
	// Open to the core worker's reusable transaction.
	tx Txn
}

// ID returns the worker's thread ID.
func (w *Worker) ID() int { return w.w.ID() }

// Run executes fn in a read-write transaction, retrying on ErrAborted with
// contention-regulated backoff. Returning any other error rolls back and
// returns it. fn may run multiple times.
//
//cicada:noalloc
func (w *Worker) Run(fn func(tx *Txn) error) error {
	return w.w.Run(func(*core.Txn) error {
		return fn(&w.tx)
	})
}

// RunLimited is Run with a bounded conflict-retry budget: after
// maxAttempts tries it returns an *AbortedError carrying the final
// attempt's abort reason instead of retrying forever. maxAttempts ≤ 0
// behaves like Run. The network server (internal/server) uses this to
// bound per-request work and surface the abort taxonomy as wire error
// codes (docs/PROTOCOL.md).
//
//cicada:noalloc
func (w *Worker) RunLimited(fn func(tx *Txn) error, maxAttempts int) error {
	return w.w.RunLimited(func(*core.Txn) error {
		return fn(&w.tx)
	}, maxAttempts)
}

// RunReadOnly executes fn in a read-only snapshot transaction at the
// worker's read timestamp: it sees a recent consistent snapshot (staleness
// on the order of the maintenance interval, §3.1/§4.6), performs no read
// validation, and cannot abort due to conflicts.
//
//cicada:noalloc
func (w *Worker) RunReadOnly(fn func(tx *Txn) error) error {
	return w.w.RunRO(func(*core.Txn) error {
		return fn(&w.tx)
	})
}

// RunExternal is Run with external consistency (§3.1): it returns only
// after every worker's future transaction is guaranteed a later timestamp
// than this commit, so acknowledgment order matches serialization order
// even across disjoint access sets. Adds roughly the maintenance interval
// of latency; all workers must keep running maintenance.
//
//cicada:noalloc
func (w *Worker) RunExternal(fn func(tx *Txn) error) error {
	return w.w.RunExternal(func(*core.Txn) error {
		return fn(&w.tx)
	})
}

// ObserveTimestamp establishes causal ordering (§3.1): the worker's future
// transactions receive timestamps later than ts. Use it to carry
// happens-before across workers or external systems.
func (w *Worker) ObserveTimestamp(ts Timestamp) { w.w.ObserveTimestamp(ts) }

// Maintain runs one cooperative maintenance step (quiescence, garbage
// collection, clock synchronization). Run and RunReadOnly call it
// automatically; call it (or Idle) from workers that pause between
// transactions so they do not stall the garbage collection horizon.
func (w *Worker) Maintain() { w.w.Maintain() }

// Idle is maintenance for a worker with no work: it also refreshes the
// worker's timestamps so min_wts keeps advancing.
func (w *Worker) Idle() { w.w.Idle() }

// ReadDirect reads a single record without a transaction (Appendix B):
// record data is always consistent in Cicada, so locating the visible
// version at the worker's snapshot timestamp needs no locking or copying.
func (w *Worker) ReadDirect(t *Table, rid RecordID) ([]byte, bool) {
	return w.w.ReadDirect(t.t, rid)
}

// SnapshotTimestamp returns the timestamp a read-only transaction would use
// now; useful for measuring snapshot staleness.
func (w *Worker) SnapshotTimestamp() Timestamp { return w.w.SnapshotTS() }

// Stats returns this worker's counters. Safe to call while the worker runs
// (see DB.Stats).
func (w *Worker) Stats() Stats { return statsFromCore(w.w.Stats()) }

// Txn is a transaction. All operations must happen on the worker's
// goroutine between Run's invocation and return. The handle belongs to the
// worker, which passes the same one to every fn: it is dead once fn returns
// and must not be retained or used after that.
type Txn struct {
	t *core.Txn
}

// Timestamp returns the transaction's timestamp, which is also its position
// in the equivalent serial schedule.
func (tx *Txn) Timestamp() Timestamp { return tx.t.Timestamp() }

// ReadOnly reports whether this is a read-only snapshot transaction.
func (tx *Txn) ReadOnly() bool { return tx.t.ReadOnly() }

// Read returns the record's data at the transaction's timestamp. The slice
// aliases the shared committed version — valid until the transaction ends
// and must not be modified. (Committed version data is immutable, so no
// defensive copy or re-validation read is needed.)
func (tx *Txn) Read(t *Table, rid RecordID) ([]byte, error) {
	return tx.t.Read(t.t, rid)
}

// Update stages a read-modify-write and returns a writable buffer holding a
// copy of the current data, resized to newSize if newSize ≥ 0.
func (tx *Txn) Update(t *Table, rid RecordID, newSize int) ([]byte, error) {
	return tx.t.Update(t.t, rid, newSize)
}

// Write stages a blind write (no dependency on the record's previous value)
// and returns a zeroed writable buffer of size bytes.
func (tx *Txn) Write(t *Table, rid RecordID, size int) ([]byte, error) {
	return tx.t.Write(t.t, rid, size)
}

// Insert creates a record and returns its ID and writable buffer. The ID is
// private to the transaction until commit.
func (tx *Txn) Insert(t *Table, size int) (RecordID, []byte, error) {
	return tx.t.Insert(t.t, size)
}

// Delete stages the record's deletion; its ID is reclaimed by garbage
// collection after the delete commits.
func (tx *Txn) Delete(t *Table, rid RecordID) error {
	return tx.t.Delete(t.t, rid)
}

// Internal returns the underlying transaction for advanced integrations.
func (tx *Txn) Internal() *core.Txn { return tx.t }
