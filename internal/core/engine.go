// Package core implements the Cicada transaction engine: optimistic
// multi-version execution (§3.2), best-effort inlining hooks (§3.3),
// serializable multi-version validation with its performance optimizations
// (§3.4, §3.5), rapid garbage collection (§3.8), and contention regulation
// (§3.9), all on top of the multi-clock timestamp allocation in
// internal/clock (§3.1) and the version storage in internal/storage.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"cicada/internal/clock"
	"cicada/internal/storage"
	"cicada/internal/telemetry"
	"cicada/internal/trace"
)

// Errors returned by transaction operations.
var (
	// ErrAborted reports a concurrency conflict; the caller should retry
	// the transaction (Worker.Run does this automatically).
	ErrAborted = errors.New("cicada: transaction aborted")
	// ErrNotFound reports that no committed record version is visible at
	// the transaction's timestamp.
	ErrNotFound = errors.New("cicada: record not found")
	// ErrReadOnly reports a write attempted in a read-only transaction.
	ErrReadOnly = errors.New("cicada: write in read-only transaction")
	// ErrTxnClosed reports use of a finished transaction.
	ErrTxnClosed = errors.New("cicada: transaction is closed")
)

// TableID identifies a table within an Engine.
type TableID int

// Options configures an Engine. The zero value is not valid; use
// DefaultOptions and adjust.
type Options struct {
	// Workers is the number of worker threads (goroutines) that will run
	// transactions. Worker IDs are 0..Workers-1; worker 0 is the leader.
	Workers int
	// Inlining enables best-effort inlining and promotion (§3.3).
	Inlining bool
	// NoWaitPending makes readers speculatively ignore PENDING versions
	// instead of spin-waiting, as Hekaton does (Table 2 "No-wait").
	NoWaitPending bool
	// NoWriteLatestRule disables the write-latest-version-only early abort
	// for RMW accesses (Table 2 "No-latest").
	NoWriteLatestRule bool
	// NoSortWriteSet disables contention-aware write-set sorting (Table 2
	// "No-sort").
	NoSortWriteSet bool
	// NoPreCheck disables the early version consistency check (Table 2
	// "No-precheck").
	NoPreCheck bool
	// GCInterval is the minimum interval between a worker's quiescence
	// declarations; it bounds garbage collection frequency (§3.8, Fig 9).
	GCInterval time.Duration
	// BackoffUpdatePeriod is the leader's hill-climbing period (§3.9).
	BackoffUpdatePeriod time.Duration
	// BackoffStep is the hill-climbing step for the maximum backoff (§3.9).
	BackoffStep time.Duration
	// FixedMaxBackoff, when ≥ 0, freezes the maximum backoff (disabling
	// hill climbing) for the Figure 10 manual-backoff sweeps. A negative
	// value selects automatic contention regulation.
	FixedMaxBackoff time.Duration
	// AdaptiveSkipThreshold is the number of consecutive commits after
	// which a worker omits write-set sorting and the early consistency
	// check (§3.5). Paper default: 5.
	AdaptiveSkipThreshold int
	// PendingWaitLimit bounds how many times a transaction yields while
	// spin-waiting on one PENDING version before aborting with
	// AbortPendingWait. 0 (the default, matching the paper) waits
	// indefinitely; the writer is validating and resolves shortly.
	PendingWaitLimit int
	// HeatTableSize is the per-worker hot-key heat table size in slots,
	// rounded up to a power of two (heat.go). The table is a fixed-size
	// lossy sketch and never grows. Default 1024.
	HeatTableSize int
	// HeatHotThreshold is the heat counter value at or above which a record
	// counts as hot: hot write-set keys force write-set sorting and the
	// early consistency check despite a commit streak, and hot conflict
	// keys receive the full regulated backoff. Default 8.
	HeatHotThreshold int
	// HeatRTSSlackTicks, when > 0, enables coarse read-timestamp
	// maintenance for cold records: a committed read of a cold record
	// raises the version's rts this many clock ticks *beyond* the
	// transaction timestamp, so subsequent cold reads within the slack
	// window find rts already high enough and skip the shared-line CAS
	// entirely. rts only ever over-approximates — the sole cost is an
	// occasional conservative abort of a rare writer to a cold record —
	// so serializability is unaffected. Default 0 (exact rts everywhere).
	HeatRTSSlackTicks uint64
	// NoHeatTracking disables per-record heat tracking entirely: no bumps,
	// no per-record adaptive switching, no heat-weighted backoff, no
	// coarse rts maintenance. The §3.5 streak skip then gates on the
	// commit streak alone, as in the paper.
	NoHeatTracking bool
	// NoHeatBackoff disables only the heat weighting of post-abort backoff
	// (backoff.go), keeping the other heat consumers active.
	NoHeatBackoff bool
	// Clock configures timestamp allocation; set Clock.Centralized for the
	// Figure 7 shared-counter ablation.
	Clock clock.Options
	// Metrics, when non-nil, receives the engine's metric registrations and
	// per-worker instrumentation (abort taxonomy, phase latency histograms,
	// GC/clock/backoff gauges, aborted-transaction flight recorder). The
	// registry must have at least Workers shards. When nil, the engine runs
	// with counters only and adds no timing calls to the hot path.
	Metrics *telemetry.Registry
	// Trace, when non-nil, attaches the per-worker transaction tracer
	// (docs/OBSERVABILITY.md "Tracing"): sampled txn/phase/wait events and
	// always-on abort events flow into its ring buffers. The tracer must
	// have at least Workers shards. When nil, no trace checks run at all.
	Trace *trace.Tracer
}

// DefaultOptions returns the paper's default configuration for n workers.
func DefaultOptions(n int) Options {
	return Options{
		Workers:               n,
		Inlining:              true,
		GCInterval:            10 * time.Microsecond,
		BackoffUpdatePeriod:   5 * time.Millisecond,
		BackoffStep:           500 * time.Nanosecond,
		FixedMaxBackoff:       -1,
		AdaptiveSkipThreshold: 5,
		HeatTableSize:         1024,
		HeatHotThreshold:      8,
	}
}

// LogEntry describes one new version in a committed transaction's write or
// insert set, as handed to the durability Logger (§3.7).
type LogEntry struct {
	Table   TableID
	Record  storage.RecordID
	Data    []byte // nil for a delete
	Deleted bool
}

// Logger is the customizable durability hook invoked after validation and
// before the write phase (§3.4, §3.7). Returning an error aborts the
// transaction.
type Logger interface {
	Log(worker int, ts clock.Timestamp, entries []LogEntry) error
}

// Table pairs a storage table with its engine-assigned ID.
type Table struct {
	ID TableID
	st *storage.Table
}

// Storage exposes the underlying storage table (used by checkpointing).
func (t *Table) Storage() *storage.Table { return t.st }

// Engine is a Cicada database instance: a set of tables, a clock domain, and
// per-worker execution state.
type Engine struct {
	opts    Options
	clock   *clock.Domain
	tables  []*Table
	byName  map[string]*Table
	workers []*Worker
	logger  Logger

	// epoch counts completed quiescence rounds; it drives epoch-delayed
	// version reuse. It sits on its own cache line: every worker reads it
	// when batching limbo versions, and without the padding a leader bump
	// would also invalidate the neighbouring regulator/quiesce headers.
	_     [64]byte
	epoch atomic.Uint64
	_     [56]byte
	// quiesce holds one flag per worker, set by the worker during
	// maintenance and cleared by the leader after a full round; each flag
	// is padded to its own line (see quiesceFlag).
	quiesce []quiesceFlag
	// reg is the contention regulator (§3.9).
	reg regulator
}

// quiesceFlag is one worker's quiescence flag on its own cache line: every
// worker stores to its flag each maintenance pass, and an unpadded
// []atomic.Bool would pack 64 of them into one line, turning those
// independent stores into cross-core ping-pong.
type quiesceFlag struct {
	v atomic.Bool
	_ [63]byte
}

// Load returns the flag.
func (f *quiesceFlag) Load() bool { return f.v.Load() }

// Store sets the flag.
func (f *quiesceFlag) Store(b bool) { f.v.Store(b) }

// NewEngine creates an engine with the given options.
func NewEngine(opts Options) *Engine {
	if opts.Workers < 1 {
		panic("core: Options.Workers must be ≥ 1")
	}
	if opts.GCInterval <= 0 {
		opts.GCInterval = 10 * time.Microsecond
	}
	if opts.BackoffUpdatePeriod <= 0 {
		opts.BackoffUpdatePeriod = 5 * time.Millisecond
	}
	if opts.BackoffStep <= 0 {
		opts.BackoffStep = 500 * time.Nanosecond
	}
	if opts.AdaptiveSkipThreshold <= 0 {
		opts.AdaptiveSkipThreshold = 5
	}
	if opts.HeatTableSize <= 0 {
		opts.HeatTableSize = 1024
	}
	if opts.HeatHotThreshold <= 0 {
		opts.HeatHotThreshold = 8
	}
	e := &Engine{
		opts:    opts,
		clock:   clock.NewDomain(opts.Workers, opts.Clock),
		byName:  make(map[string]*Table),
		quiesce: make([]quiesceFlag, opts.Workers),
	}
	e.reg.init(&opts)
	e.workers = make([]*Worker, opts.Workers)
	for i := range e.workers {
		e.workers[i] = newWorker(e, i)
	}
	if opts.Metrics != nil {
		e.initTelemetry(opts.Metrics)
	}
	if opts.Trace != nil {
		e.initTrace(opts.Trace)
	}
	return e
}

// Options returns the engine's configuration.
func (e *Engine) Options() Options { return e.opts }

// Clock returns the engine's clock domain.
func (e *Engine) Clock() *clock.Domain { return e.clock }

// SetLogger installs the durability hook. It must be called before
// transactions run.
func (e *Engine) SetLogger(l Logger) { e.logger = l }

// CreateTable registers a new table. inlining may be disabled per table for
// the Figure 8 ablation; it is ANDed with Options.Inlining.
func (e *Engine) CreateTable(name string) *Table {
	if _, dup := e.byName[name]; dup {
		panic(fmt.Sprintf("core: duplicate table %q", name))
	}
	t := &Table{
		ID: TableID(len(e.tables)),
		st: storage.NewTable(name, e.opts.Workers, e.opts.Inlining),
	}
	e.tables = append(e.tables, t)
	e.byName[name] = t
	return t
}

// TableByID returns the table with the given ID.
func (e *Engine) TableByID(id TableID) *Table { return e.tables[id] }

// TableByName returns the named table, or nil.
func (e *Engine) TableByName(name string) *Table { return e.byName[name] }

// Tables returns all tables in creation order.
func (e *Engine) Tables() []*Table { return e.tables }

// Worker returns the per-worker execution handle for id.
func (e *Engine) Worker(id int) *Worker { return e.workers[id] }

// MaxBackoff returns the current globally coordinated maximum backoff.
func (e *Engine) MaxBackoff() time.Duration { return e.reg.max() }

// Epoch returns the number of completed quiescence rounds.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// CommitsLive returns the current committed-transaction count across all
// workers; safe to call concurrently (used for live throughput sampling and
// by the contention regulator).
func (e *Engine) CommitsLive() uint64 {
	var n uint64
	for _, w := range e.workers {
		n += w.stats.commits.Load()
	}
	return n
}

// Stats aggregates all workers' counters. Safe to call while workers run:
// every counter is a single-writer atomic word, so the result may lag
// in-flight transactions but is never torn.
func (e *Engine) Stats() Stats {
	var s Stats
	for _, w := range e.workers {
		ws := w.stats.snapshot()
		s.add(&ws)
	}
	return s
}

// SpaceOverhead returns the total version count divided by the total record
// count minus one, as a fraction (Figure 9's space overhead metric). It is a
// racy scan intended for measurement, not coordination.
func (e *Engine) SpaceOverhead() float64 {
	var records, versions uint64
	for _, t := range e.tables {
		capacity := t.st.Cap()
		for rid := storage.RecordID(0); uint64(rid) < capacity; rid++ {
			h := t.st.Head(rid)
			if h == nil {
				continue
			}
			n := uint64(0)
			for v := h.Latest(); v != nil; v = v.Next() {
				n++
				if n > 1<<20 {
					break // defensive: racing chain mutation
				}
			}
			if n > 0 {
				records++
				versions += n
			}
		}
	}
	if records == 0 {
		return 0
	}
	return float64(versions)/float64(records) - 1
}

// Stats are per-worker transaction counters.
type Stats struct {
	// Commits counts committed transactions.
	Commits uint64
	// Aborts counts concurrency-control aborts (before any retries).
	Aborts uint64
	// UserAborts counts application-requested rollbacks.
	UserAborts uint64
	// AbortTime is the time spent executing transactions that aborted plus
	// backoff time, for the Figure 10 abort-time ratio.
	AbortTime time.Duration
	// BusyTime is the total time spent processing transactions.
	BusyTime time.Duration
	// AbortsByReason splits aborts by cause, indexed by AbortReason. The
	// entries other than AbortUser sum to Aborts; the AbortUser entry
	// mirrors UserAborts (user rollbacks are not concurrency-control
	// aborts and stay out of the Aborts aggregate, as before).
	AbortsByReason [NumAbortReasons]uint64
	// HeatAbortBumps / HeatWaitBumps count heat-table bumps by source:
	// attributed concurrency-control aborts and pending-version waits.
	HeatAbortBumps uint64
	HeatWaitBumps  uint64
	// HeatForcedChecks counts validations where a hot write-set key forced
	// write-set sorting and the early consistency check despite an active
	// §3.5 commit streak.
	HeatForcedChecks uint64
	// HeatScaledBackoffs counts post-abort backoffs shortened because the
	// conflict key was warm but below the hot threshold.
	HeatScaledBackoffs uint64
	// HeatRTSCoarse counts cold-record rts updates over-raised by the
	// configured slack; HeatRTSSkips counts cold-record reads that skipped
	// the rts CAS because a previous coarse raise already covered them.
	HeatRTSCoarse uint64
	HeatRTSSkips  uint64
}

func (s *Stats) add(o *Stats) {
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.UserAborts += o.UserAborts
	s.AbortTime += o.AbortTime
	s.BusyTime += o.BusyTime
	for i := range s.AbortsByReason {
		s.AbortsByReason[i] += o.AbortsByReason[i]
	}
	s.HeatAbortBumps += o.HeatAbortBumps
	s.HeatWaitBumps += o.HeatWaitBumps
	s.HeatForcedChecks += o.HeatForcedChecks
	s.HeatScaledBackoffs += o.HeatScaledBackoffs
	s.HeatRTSCoarse += o.HeatRTSCoarse
	s.HeatRTSSkips += o.HeatRTSSkips
}

// AbortRate returns aborts / (aborts + commits).
func (s *Stats) AbortRate() float64 {
	total := s.Aborts + s.Commits
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}

// Worker is the per-thread execution context: reusable transaction state,
// the version pool, the garbage collection queue, and maintenance bookkeeping.
// A Worker must only be used from one goroutine at a time.
type Worker struct {
	id  int
	eng *Engine

	pool storage.VersionPool
	txn  Txn
	rng  *rand.Rand
	// stats holds the worker's counters as single-writer atomic words, so
	// the leader's contention regulator, Engine.Stats, and live scrapers
	// read them without racing the worker.
	stats workerStats
	// tel caches telemetry shard pointers (phase histograms, GC gauge,
	// flight recorder); nil when Options.Metrics is unset.
	tel *workerTel
	// tr is the worker's trace event ring; nil when Options.Trace is unset,
	// so an untraced engine pays one nil check per instrumentation site.
	tr *trace.Shard

	// gcQueue is the local garbage collection queue (§3.8); items are
	// appended at commit and consumed from the front once min_rts passes.
	gcQueue []gcItem
	gcHead  int
	limbo   []limboBatch
	// limboSpare recycles drained limbo batches (with their entry/free
	// slice capacity) so steady-state epoch turnover does not allocate.
	limboSpare []limboBatch
	// gcScratch is collect's reusable detached-version staging buffer.
	gcScratch []limboEntry
	// lastQuiesce is the reading of the last quiescence declaration.
	lastQuiesce int64

	// consecutiveCommits drives adaptive omission of write-set sorting and
	// the early consistency check (§3.5).
	consecutiveCommits int

	// heat tracks recent per-record contention on this worker (heat.go):
	// bumped on attributed aborts and pending waits, consumed by the
	// per-record adaptive switching in validate.go and backoff.go.
	heat heatTable
}

func newWorker(e *Engine, id int) *Worker {
	w := &Worker{
		id:  id,
		eng: e,
		rng: rand.New(rand.NewSource(int64(id)*1_000_003 + 17)),
	}
	w.txn.worker = w
	w.txn.eng = e
	w.txn.own.init(64)
	w.heat.init(e.opts.HeatTableSize)
	return w
}

// ID returns the worker's thread ID.
func (w *Worker) ID() int { return w.id }

// Stats returns a copy of the worker's counters; safe to call from any
// goroutine while the worker runs.
func (w *Worker) Stats() Stats { return w.stats.snapshot() }

// Txn returns the worker's one reusable transaction, the *Txn that every
// Begin and Run* hands out; it is live only between a begin and its finish.
func (w *Worker) Txn() *Txn { return &w.txn }

// Begin starts a read-write transaction.
func (w *Worker) Begin() *Txn { return w.begin(w.eng.clock.Now(), false) }

// BeginRO starts a read-only transaction at thread.rts. Read-only
// transactions never track or validate their read set and always see a
// consistent snapshot (§3.1).
func (w *Worker) BeginRO() *Txn { return w.begin(w.eng.clock.Now(), true) }

// begin starts a transaction at reading now.
//
//cicada:noalloc
func (w *Worker) begin(now int64, readOnly bool) *Txn {
	t := &w.txn
	if readOnly {
		t.begin(w.eng.clock.ReadTimestamp(w.id), now, true)
	} else {
		t.begin(w.eng.clock.NewWriteTimestamp(w.id, now), now, false)
	}
	return t
}

// Run executes fn inside a read-write transaction, retrying on ErrAborted
// with the engine's contention regulation. Any other error from fn aborts
// the transaction and is returned.
//
//cicada:noalloc
func (w *Worker) Run(fn func(t *Txn) error) error { return w.run(fn, false, 0, false) }

// AbortedError is ErrAborted plus the final attempt's abort-taxonomy
// reason; RunLimited returns it when a retry budget is exhausted.
// errors.Is(err, ErrAborted) holds, so retry loops written against the
// sentinel keep working.
type AbortedError struct {
	// Reason classifies the last attempt's conflict (stats.go taxonomy).
	Reason AbortReason
}

func (e *AbortedError) Error() string {
	return "cicada: transaction aborted (" + e.Reason.String() + ")"
}

// Is makes errors.Is(err, ErrAborted) true for exhausted retry budgets.
func (e *AbortedError) Is(target error) bool { return target == ErrAborted }

// RunLimited is Run with a bounded conflict-retry budget: after attempts
// tries (attempts ≥ 1) it gives up and returns an *AbortedError carrying
// the final attempt's abort reason, instead of retrying forever. The
// network server uses it to bound per-request work under contention and to
// map the abort taxonomy onto wire error codes. attempts ≤ 0 behaves
// exactly like Run. The exhausted-budget error allocates; that is the cold
// give-up path, never the steady-state commit path.
//
//cicada:noalloc
func (w *Worker) RunLimited(fn func(t *Txn) error, attempts int) error {
	return w.run(fn, false, attempts, false)
}

// RunExternal is Run with external consistency (§3.1): it does not return
// until min_wts exceeds the committed transaction's timestamp, so once the
// caller observes the commit, every future transaction on any worker is
// serialized after it — commit acknowledgment order matches timestamp
// order. The paper reports roughly 100 µs of added latency; other pending
// transactions continue during the wait. All workers must keep running
// maintenance (Run/RunRO/Idle) or min_wts cannot advance.
//
//cicada:noalloc
func (w *Worker) RunExternal(fn func(t *Txn) error) error { return w.run(fn, false, 0, true) }

// RunRO executes fn inside a read-only transaction. Read-only transactions
// cannot abort due to conflicts and are never retried: any error from fn,
// ErrAborted included, rolls back and is returned as is.
//
//cicada:noalloc
func (w *Worker) RunRO(fn func(t *Txn) error) error { return w.run(fn, true, 0, false) }

// run is the transaction envelope: the one begin / fn / commit-or-abort /
// account / maintain loop behind Run, RunLimited, RunExternal and RunRO.
// attempts > 0 bounds the tries; external waits for min_wts to pass the
// commit. It reads the clock twice per attempt (docs/PERFORMANCE.md
// "Transaction envelope"): the begin reading is the write timestamp's clock
// increment and the start of busy time, the end reading closes busy and abort
// time and drives maintenance. A retry begins at the reading backoff returns,
// never at one taken before the wait.
//
//cicada:noalloc
func (w *Worker) run(fn func(t *Txn) error, readOnly bool, attempts int, external bool) error {
	c := w.eng.clock
	now := c.Now()
	for tries := 1; ; tries++ {
		t := w.begin(now, readOnly)
		ts := t.ts
		err := fn(t)
		if err == nil {
			err = t.Commit()
		} else {
			t.Abort()
		}
		end := c.Now()
		w.stats.addBusyTime(time.Duration(end - now))
		// ErrAborted is a conflict, retried unless the transaction is
		// read-only; any other error is the application's rollback.
		conflict := errors.Is(err, ErrAborted)
		if conflict && !readOnly {
			w.stats.addAbortTime(time.Duration(end - now))
			if tries != attempts {
				now = w.backoff()
				w.maintain(now)
				continue
			}
			err = &AbortedError{Reason: t.lastCC}
		} else if err != nil && !conflict {
			w.stats.incUserAbort()
		}
		w.maintain(end)
		for external && err == nil && c.MinWTS() <= ts {
			w.Idle()
		}
		return err
	}
}

// ObserveTimestamp establishes causal ordering (§3.1): after observing a
// timestamp from another thread or system, the worker's future transactions
// receive later timestamps. The clock adjustment is instant because
// Cicada's multi-clock does not tie clock increments to real time, and
// one-sided synchronization corrects the drift.
func (w *Worker) ObserveTimestamp(ts clock.Timestamp) {
	w.eng.clock.AdvanceForCausality(w.id, ts)
}

// SnapshotTS returns the timestamp a read-only transaction would run at now;
// exposed for the snapshot-staleness measurement (§4.6).
func (w *Worker) SnapshotTS() clock.Timestamp { return w.eng.clock.ReadTimestamp(w.id) }

// CurrentTS returns the worker's last allocated write timestamp.
func (w *Worker) CurrentTS() clock.Timestamp { return w.eng.clock.WTS(w.id) }
