package core

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"cicada/internal/trace"
)

// maxBackoffCeiling bounds the hill climber; the paper's optima are in the
// microsecond range and DBx1000's fixed scheme uses 100 µs.
const maxBackoffCeiling = 100 * time.Millisecond

// regulator implements Cicada's contention regulation (§3.9): randomized
// backoff whose maximum duration is globally coordinated by the leader
// thread, which hill-climbs toward the value that maximizes committed
// throughput.
type regulator struct {
	// maxNs is the globally coordinated maximum backoff in nanoseconds,
	// read by every worker on abort; the padding keeps the leader's
	// hill-climbing bookkeeping below off the readers' cache line.
	maxNs atomic.Int64
	_     [56]byte
	// fixed disables hill climbing (Figure 10 manual sweeps).
	fixed bool

	period time.Duration
	step   float64 // ns

	// Leader-only hill-climbing state.
	lastUpdate  int64 // reading of the last step; 0 before the first
	lastCommits uint64
	prevTput    float64
	prevMaxNs   float64
	havePrev    bool
}

func (r *regulator) init(opts *Options) {
	r.period = opts.BackoffUpdatePeriod
	r.step = float64(opts.BackoffStep)
	if opts.FixedMaxBackoff >= 0 {
		r.fixed = true
		r.maxNs.Store(int64(opts.FixedMaxBackoff))
	}
}

// max returns the current maximum backoff duration.
func (r *regulator) max() time.Duration { return time.Duration(r.maxNs.Load()) }

// maybeAdjust runs one hill-climbing step if a full period has elapsed. The
// gradient is the throughput change divided by the maximum-backoff change
// between the second-to-last and last periods: positive → increase the
// maximum backoff by one step, negative → decrease it, zero or undefined →
// move in a random direction (§3.9).
func (r *regulator) maybeAdjust(now int64, commits uint64, rng *rand.Rand) {
	if r.fixed {
		return
	}
	if r.lastUpdate == 0 {
		r.lastUpdate = now
		r.lastCommits = commits
		return
	}
	dt := time.Duration(now - r.lastUpdate)
	if dt < r.period {
		return
	}
	tput := float64(commits-r.lastCommits) / dt.Seconds()
	curMax := float64(r.maxNs.Load())
	delta := r.step
	if r.havePrev {
		dTput := tput - r.prevTput
		dMax := curMax - r.prevMaxNs
		switch {
		case dMax == 0 || dTput == 0:
			if rng.Intn(2) == 0 {
				delta = -r.step
			}
		case dTput/dMax > 0:
			delta = r.step
		default:
			delta = -r.step
		}
	} else if rng.Intn(2) == 0 {
		delta = -r.step
	}
	next := curMax + delta
	if next < 0 {
		next = 0
	}
	if next > float64(maxBackoffCeiling) {
		next = float64(maxBackoffCeiling)
	}
	r.prevTput = tput
	r.prevMaxNs = curMax
	r.havePrev = true
	r.maxNs.Store(int64(next))
	r.lastUpdate = now
	r.lastCommits = commits
}

// backoff waits for a random duration in [0, max] after an abort and returns
// a reading taken once the wait is over, for the retry to begin at. Short
// backoffs busy-yield on the monotonic clock rather than calling time.Sleep,
// whose scheduler granularity would distort microsecond-scale backoff (and
// would stall the single-CPU testbed).
func (w *Worker) backoff() int64 {
	w.stats.incBackoff()
	c := w.eng.clock
	d := w.backoffDuration()
	if d == 0 {
		runtime.Gosched()
		return c.Now()
	}
	w.stats.addAbortTime(d)
	if tr := w.tr; tr != nil && tr.Enabled() {
		tr.Record(trace.EvBackoff, time.Now().UnixNano(), uint64(d), 0, 0)
	}
	if d > 2*time.Millisecond {
		time.Sleep(d)
		return c.Now()
	}
	now := c.Now()
	for deadline := now + int64(d); now < deadline; now = c.Now() {
		runtime.Gosched()
	}
	return now
}

// backoffDuration draws this abort's backoff; 0 means retry after one yield.
func (w *Worker) backoffDuration() time.Duration {
	max := w.eng.reg.max()
	if max <= 0 {
		return 0
	}
	if opts := &w.eng.opts; !opts.NoHeatTracking && !opts.NoHeatBackoff {
		// Heat-weighted contention regulation: scale this abort's backoff
		// ceiling by the heat of the key that caused it. Hot-key losers take
		// the full regulated maximum (they are fighting over a structurally
		// contended record), warm keys a proportional fraction, and cold-key
		// aborts retry immediately — the conflict was incidental and
		// backing off would only waste the worker. The hill climber still
		// owns the global ceiling.
		var h uint32
		if k := w.txn.conflictKey; k != noConflictKey {
			h = w.heat.get(k)
		}
		if hot := uint32(opts.HeatHotThreshold); h < hot {
			max = time.Duration(uint64(max) * uint64(h) / uint64(hot))
			if max <= 0 {
				return 0
			}
			w.stats.incHeatScaledBackoff()
		}
	}
	return time.Duration(w.rng.Int63n(int64(max) + 1))
}
