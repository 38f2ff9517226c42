// Package clock implements Cicada's multi-clock timestamp allocation (§3.1).
//
// Each worker thread owns a 64-bit software clock that is incremented by the
// locally measured elapsed time right before a timestamp is allocated. A
// timestamp combines the low-order 56 bits of the adjusted clock (local clock
// plus a temporary boost, forced above the previously issued adjusted clock)
// with an 8-bit thread ID suffix that acts as a tie-breaker. The design
// removes the shared-counter bottleneck of conventional MVCC timestamp
// allocation: no two workers ever write the same memory location to allocate
// a timestamp.
//
// Clocks are kept loosely synchronized by two mechanisms:
//
//   - One-sided synchronization: every SyncInterval a worker peeks at one
//     remote clock (round-robin), compensates for communication latency, and
//     adopts the remote value if it is ahead. Slow clocks catch up to fast
//     clocks; fast clocks are never pulled back.
//   - Temporary clock boosting: after an abort the worker adds BoostTicks to
//     its adjusted clock so its retry wins against the writers that aborted
//     it. The boost is cleared on commit.
//
// The Domain also tracks min_wts (the minimum of all workers' last write
// timestamps) and min_rts (the minimum of all workers' read timestamps),
// which are advanced monotonically by a leader thread during maintenance.
// Read-only transactions run at thread.rts = min_wts-1 and need no read-set
// validation; min_rts is the garbage collection horizon.
package clock

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Timestamp layout constants. A timestamp is
//
//	(adjustedClock &^ (0xff << 56)) << 8 ... -- conceptually the low 56 bits
//	of the adjusted clock followed by the 8-bit thread ID.
const (
	// ThreadIDBits is the width of the thread-ID suffix.
	ThreadIDBits = 8
	// ClockBits is the width of the clock portion of a timestamp.
	ClockBits = 64 - ThreadIDBits
	// MaxWorkers is the maximum number of workers a Domain supports.
	MaxWorkers = 1 << ThreadIDBits

	clockMask = (uint64(1) << ClockBits) - 1
	tidMask   = (uint64(1) << ThreadIDBits) - 1
)

// Timestamp is a Cicada transaction timestamp: 56 bits of adjusted clock and
// an 8-bit thread ID. Timestamps are unique across the Domain and compare as
// plain unsigned integers. The zero Timestamp precedes every allocated one.
type Timestamp uint64

// Compose builds a Timestamp from a clock value and a worker ID.
func Compose(clockVal uint64, workerID int) Timestamp {
	return Timestamp((clockVal&clockMask)<<ThreadIDBits | uint64(workerID)&tidMask)
}

// WorkerID extracts the thread-ID suffix.
func (t Timestamp) WorkerID() int { return int(uint64(t) & tidMask) }

// ClockValue extracts the 56-bit clock portion.
func (t Timestamp) ClockValue() uint64 { return uint64(t) >> ThreadIDBits }

// String formats the timestamp as clock.worker for debugging.
func (t Timestamp) String() string {
	return fmt.Sprintf("%d.%d", t.ClockValue(), t.WorkerID())
}

// Options configures a Domain. The zero value selects the paper's defaults.
type Options struct {
	// SyncInterval is how often a worker performs one-sided clock
	// synchronization with a remote worker. Paper default: 100 µs.
	SyncInterval time.Duration
	// Boost is the temporary clock boost granted after an abort; it must
	// exceed the residual skew left by one-sided synchronization.
	// Paper default: 1 µs.
	Boost time.Duration
	// MaxIncrement clamps a single clock increment, guarding against
	// time-source anomalies. Paper default: 1 hour.
	MaxIncrement time.Duration
	// CoherencyCompensation is added to a remotely read clock to compensate
	// for the latency of reading it. Modeled after the paper's cache
	// coherency compensation.
	CoherencyCompensation time.Duration
	// Centralized switches the Domain to a single shared atomic counter, as
	// used by conventional MVCC schemes (Hekaton et al.). It exists for the
	// Figure 7 factor analysis and for the baseline engines.
	Centralized bool
}

func (o *Options) setDefaults() {
	if o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Microsecond
	}
	if o.Boost <= 0 {
		o.Boost = time.Microsecond
	}
	if o.MaxIncrement <= 0 {
		o.MaxIncrement = time.Hour
	}
	if o.CoherencyCompensation < 0 {
		o.CoherencyCompensation = 0
	}
}

// workerClock is the per-worker clock state. It is padded to its own cache
// lines so that clock updates by one worker do not invalidate neighbours.
type workerClock struct {
	// clock is the local software clock in ticks (nanoseconds). It is
	// written only by the owning worker but read by remote workers during
	// one-sided synchronization, hence atomic.
	clock atomic.Uint64
	// lastAdjusted is the adjusted clock used for the previous timestamp;
	// only the owner touches it.
	lastAdjusted uint64
	// boost is the temporary clock boost in ticks; owner-only.
	boost uint64
	// lastTick is the reading (Domain.Now) of the last clock increment;
	// owner-only.
	lastTick int64
	// lastSync is the reading of the last one-sided synchronization.
	lastSync int64
	// syncTarget is the next round-robin synchronization peer.
	syncTarget int
	// wts is the worker's last allocated write timestamp (atomic: leader
	// reads it to compute min_wts).
	wts atomic.Uint64
	// rts is the worker's read-only-transaction timestamp, refreshed to
	// min_wts-1 during maintenance (atomic: leader reads it for min_rts).
	rts atomic.Uint64

	_ [32]byte // pad to two full cache lines so adjacent entries never share
}

// Domain is a set of loosely synchronized worker clocks plus the min_wts /
// min_rts watermarks shared by all workers.
type Domain struct {
	opts    Options
	workers []workerClock
	// minWTS and minRTS are leader-written watermarks read by every worker
	// on the hot path, and central is CAS-hammered by every worker in
	// Centralized mode; each sits on its own cache line so a write to one
	// never invalidates readers of the others (or the headers above).
	_       [64]byte
	minWTS  atomic.Uint64
	_       [56]byte
	minRTS  atomic.Uint64
	_       [56]byte
	central atomic.Uint64
	_       [56]byte
	// start anchors the time base: every reading is nanoseconds since it,
	// so all clocks begin near zero.
	start time.Time
}

// NewDomain creates a Domain for n workers (1 ≤ n ≤ MaxWorkers).
func NewDomain(n int, opts Options) *Domain {
	if n < 1 || n > MaxWorkers {
		panic(fmt.Sprintf("clock: worker count %d out of range [1,%d]", n, MaxWorkers))
	}
	opts.setDefaults()
	d := &Domain{
		opts:    opts,
		workers: make([]workerClock, n),
		start:   time.Now(),
	}
	// Clocks start at 1 so the zero Timestamp strictly precedes all
	// allocated timestamps.
	for i := range d.workers {
		w := &d.workers[i]
		w.clock.Store(1)
		w.syncTarget = (i + 1) % n
		w.wts.Store(uint64(Compose(1, i)))
		w.rts.Store(0)
	}
	d.central.Store(1)
	d.minWTS.Store(uint64(Compose(1, 0)))
	d.minRTS.Store(0)
	return d
}

// Workers returns the number of workers in the domain.
func (d *Domain) Workers() int { return len(d.workers) }

// Centralized reports whether the domain allocates from a shared counter.
func (d *Domain) Centralized() bool { return d.opts.Centralized }

// Now returns a reading of the domain's time base: monotonic nanoseconds
// since the domain was created, at the cost of one vDSO call. Callers take
// one reading per phase boundary and hand it to everything that boundary
// feeds (NewWriteTimestamp, MaybeSync, and the engine's own bookkeeping).
func (d *Domain) Now() int64 { return int64(time.Since(d.start)) }

// Time converts a reading back to the wall-clock time it was taken at.
func (d *Domain) Time(now int64) time.Time { return d.start.Add(time.Duration(now)) }

// tick advances worker w's local clock by the time elapsed between its
// previous reading and now, clamped to (0, MaxIncrement]. It returns the new
// clock value.
func (d *Domain) tick(w *workerClock, now int64) uint64 {
	elapsed := now - w.lastTick
	if elapsed <= 0 {
		elapsed = 1
	} else if elapsed > int64(d.opts.MaxIncrement) {
		elapsed = int64(d.opts.MaxIncrement)
	}
	w.lastTick = now
	c := w.clock.Load() + uint64(elapsed)
	w.clock.Store(c)
	return c
}

// NewWriteTimestamp allocates the timestamp for a new read-write transaction
// on worker id, beginning at reading now. It increments the local clock,
// applies any abort boost, and forces the adjusted clock above the previously
// issued one so the worker's timestamps are strictly monotonic even when two
// transactions share a reading.
func (d *Domain) NewWriteTimestamp(id int, now int64) Timestamp {
	if d.opts.Centralized {
		// Conventional MVCC allocation: one atomic fetch-add on shared
		// memory per transaction.
		v := d.central.Add(1)
		ts := Compose(v, id)
		d.workers[id].wts.Store(uint64(ts))
		return ts
	}
	w := &d.workers[id]
	c := d.tick(w, now)
	adjusted := c + w.boost
	if adjusted <= w.lastAdjusted {
		adjusted = w.lastAdjusted + 1
	}
	w.lastAdjusted = adjusted
	ts := Compose(adjusted, id)
	if invariantsEnabled {
		assertf(uint64(ts) > w.wts.Load(),
			"worker %d write timestamp %v not after %v", id, ts, Timestamp(w.wts.Load()))
	}
	w.wts.Store(uint64(ts))
	return ts
}

// ReadTimestamp returns the timestamp for a read-only transaction on worker
// id: the worker's thread.rts, which is guaranteed to precede every current
// and future read-write transaction timestamp, so reads at it are always
// consistent without validation.
func (d *Domain) ReadTimestamp(id int) Timestamp {
	return Timestamp(d.workers[id].rts.Load())
}

// OnAbort grants worker id a temporary clock boost so its retry uses a
// timestamp that is likely ahead of the conflicting writers'.
func (d *Domain) OnAbort(id int) {
	d.workers[id].boost = uint64(d.opts.Boost)
}

// OnCommit clears worker id's clock boost.
func (d *Domain) OnCommit(id int) {
	d.workers[id].boost = 0
}

// MaybeSync performs one-sided clock synchronization for worker id if
// SyncInterval has elapsed between its last synchronization and reading now.
// It returns true if a synchronization was attempted.
func (d *Domain) MaybeSync(id int, now int64) bool {
	w := &d.workers[id]
	if now-w.lastSync < int64(d.opts.SyncInterval) {
		return false
	}
	w.lastSync = now
	if len(d.workers) == 1 || d.opts.Centralized {
		return false
	}
	target := w.syncTarget
	if target == id {
		target = (target + 1) % len(d.workers)
	}
	w.syncTarget = (target + 1) % len(d.workers)
	remote := d.workers[target].clock.Load() + uint64(d.opts.CoherencyCompensation)
	if remote > w.clock.Load() {
		// Adopt the faster remote clock. Only the owner writes its clock,
		// so a plain store after the comparison is safe.
		w.clock.Store(remote)
	}
	return true
}

// RefreshRead refreshes worker id's read-only timestamp to min_wts-1. Called
// from the worker's maintenance step.
func (d *Domain) RefreshRead(id int) {
	min := d.minWTS.Load()
	if min == 0 {
		return
	}
	w := &d.workers[id]
	rts := min - 1
	if rts > w.rts.Load() {
		w.rts.Store(rts)
	}
}

// UpdateMins recomputes min_wts and min_rts from all workers' published
// timestamps, advancing the shared watermarks monotonically. It is called by
// the leader thread after observing a full quiescence round and returns the
// new watermarks.
func (d *Domain) UpdateMins() (minWTS, minRTS Timestamp) {
	prevW, prevR := d.minWTS.Load(), d.minRTS.Load()
	minW := ^uint64(0)
	minR := ^uint64(0)
	for i := range d.workers {
		if w := d.workers[i].wts.Load(); w < minW {
			minW = w
		}
		if r := d.workers[i].rts.Load(); r < minR {
			minR = r
		}
	}
	storeMax(&d.minWTS, minW)
	storeMax(&d.minRTS, minR)
	newW, newR := d.minWTS.Load(), d.minRTS.Load()
	if invariantsEnabled {
		// The watermarks advance monotonically (§3.6) and min_rts stays
		// strictly below min_wts: every worker's rts is some historical
		// min_wts-1, and min_wts never moves backward.
		assertf(newW >= prevW, "min_wts moved backward: %v -> %v", Timestamp(prevW), Timestamp(newW))
		assertf(newR >= prevR, "min_rts moved backward: %v -> %v", Timestamp(prevR), Timestamp(newR))
		assertf(newR < newW, "min_rts %v not below min_wts %v", Timestamp(newR), Timestamp(newW))
	}
	return Timestamp(newW), Timestamp(newR)
}

// storeMax monotonically raises an atomic to at least v.
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// MinWTS returns the current global minimum write timestamp. Every current
// and future read-write transaction has a timestamp ≥ MinWTS.
func (d *Domain) MinWTS() Timestamp { return Timestamp(d.minWTS.Load()) }

// MinRTS returns the garbage collection horizon: no current or future
// transaction reads below it.
func (d *Domain) MinRTS() Timestamp { return Timestamp(d.minRTS.Load()) }

// WTS returns worker id's last allocated write timestamp.
func (d *Domain) WTS(id int) Timestamp { return Timestamp(d.workers[id].wts.Load()) }

// MaxWTS returns the maximum of all workers' last allocated write
// timestamps. Like MinWTS it reads each published word atomically but not at
// one instant; it is a monitoring accessor, not a coordination primitive.
func (d *Domain) MaxWTS() Timestamp {
	var max uint64
	for i := range d.workers {
		if w := d.workers[i].wts.Load(); w > max {
			max = w
		}
	}
	return Timestamp(max)
}

// ClockSpreadTicks returns the current gap between the fastest and slowest
// worker clocks in ticks — the residual drift that one-sided synchronization
// and clock boosting keep bounded (§3.1). Monitoring only.
func (d *Domain) ClockSpreadTicks() uint64 {
	min, max := ^uint64(0), uint64(0)
	for i := range d.workers {
		c := d.workers[i].clock.Load()
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max < min {
		return 0
	}
	return max - min
}

// MaxSnapshotAgeTicks returns how far the oldest worker's read-only snapshot
// timestamp lags the newest write timestamp, in ticks: the staleness bound of
// read-only transactions (§3.1, §4.6). Monitoring only.
func (d *Domain) MaxSnapshotAgeTicks() uint64 {
	maxW := d.MaxWTS().ClockValue()
	minR := ^uint64(0)
	for i := range d.workers {
		if r := Timestamp(d.workers[i].rts.Load()).ClockValue(); r < minR {
			minR = r
		}
	}
	if minR >= maxW {
		return 0
	}
	return maxW - minR
}

// AdvanceAllPast raises every worker's clock so all future timestamps are
// later than after; used when initializing clocks after recovery replay
// (§3.7).
func (d *Domain) AdvanceAllPast(after Timestamp) {
	need := after.ClockValue() + 1
	for i := range d.workers {
		w := &d.workers[i]
		if w.clock.Load() < need {
			w.clock.Store(need)
		}
		if w.lastAdjusted < need {
			w.lastAdjusted = need
		}
		w.wts.Store(uint64(Compose(need, i)))
	}
	if d.central.Load() < need {
		d.central.Store(need)
	}
	d.UpdateMins()
}

// AdvanceForCausality raises worker id's clock so its next timestamp exceeds
// after. It implements the paper's causal consistency hook: the local clock
// increment does not need to match real time, and one-sided synchronization
// corrects the drift.
func (d *Domain) AdvanceForCausality(id int, after Timestamp) {
	w := &d.workers[id]
	need := after.ClockValue() + 1
	if w.clock.Load() < need {
		w.clock.Store(need)
	}
	if w.lastAdjusted < need {
		w.lastAdjusted = need
	}
}
