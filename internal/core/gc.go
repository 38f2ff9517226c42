package core

import (
	"time"

	"cicada/internal/clock"
	"cicada/internal/storage"
	"cicada/internal/trace"
)

// gcItem queues a committed version for garbage collection: once min_rts
// passes v.wts, every version of the record earlier than v is invisible to
// all current and future transactions and can be reclaimed (§3.8).
type gcItem struct {
	tbl *Table
	rid storage.RecordID
	ver *storage.Version
	wts clock.Timestamp
}

// limboEntry is a detached version awaiting epoch-delayed reuse. Detachment
// makes a version unreachable from the list, but a transaction that began
// before the detachment may still traverse it; reuse is deferred until two
// quiescence rounds have completed, by which point every such transaction
// has finished (workers declare quiescence only between transactions).
type limboEntry struct {
	v *storage.Version
	h *storage.Head
}

// limboBatch groups limbo entries (and record IDs to free) by the epoch at
// which they were detached.
type limboBatch struct {
	epoch   uint64
	entries []limboEntry
	frees   []ridFree
}

type ridFree struct {
	tbl *Table
	rid storage.RecordID
}

const limboDelayEpochs = 2

// enqueueGC records the metadata of the versions committed by the last
// transaction into the worker's local garbage collection queue (§3.8, first
// maintenance step).
func (w *Worker) enqueueGC(t *Txn) {
	for _, i := range t.writes {
		a := &t.accesses[i]
		if a.newVer == nil || !a.installed {
			continue
		}
		w.gcQueue = append(w.gcQueue, gcItem{
			tbl: a.tbl, rid: a.rid, ver: a.newVer, wts: a.newVer.WTS,
		})
	}
}

// Maintain runs the cooperative maintenance step (§3.8): declaring
// quiescence, leader duties (min_wts/min_rts advancement, epoch counting,
// backoff hill climbing), garbage collection, limbo processing, and
// one-sided clock synchronization. Workers call it between transactions;
// Worker.Run calls it automatically.
func (w *Worker) Maintain() { w.maintain(w.eng.clock.Now()) }

// maintain is Maintain at a reading the caller already took.
func (w *Worker) maintain(now int64) {
	e := w.eng
	if now-w.lastQuiesce >= int64(e.opts.GCInterval) {
		w.lastQuiesce = now
		e.quiesce[w.id].Store(true)
		e.clock.RefreshRead(w.id)
		if w.id == 0 {
			w.leaderMaintain(now)
		}
		w.collectGarbage()
		w.processLimbo()
		if !e.opts.NoHeatTracking {
			// Periodic heat decay, driven by the leader's quiescence epoch:
			// each worker halves its own table (owner-only stores), so hot
			// keys stay hot only while they keep causing conflicts.
			w.heat.maybeDecay(e.epoch.Load())
		}
		tel := w.tel
		traceOn := w.tr != nil && w.tr.Enabled()
		if tel != nil || traceOn {
			d := time.Duration(e.clock.Now() - now)
			depth := len(w.gcQueue) - w.gcHead
			if tel != nil {
				tel.gcDepth.Set(int64(depth))
				tel.phase[phaseQuiesce].ObserveDuration(d)
			}
			if traceOn {
				w.tr.Record(trace.EvGCPass, e.clock.Time(now).UnixNano(), nonNegNs(d), uint64(depth), 0)
			}
		}
	}
	e.clock.MaybeSync(w.id, now)
}

// Idle keeps an idle worker participating in maintenance so it does not
// stall min_wts, min_rts, or the epoch counter.
func (w *Worker) Idle() {
	now := w.eng.clock.Now()
	w.eng.clock.NewWriteTimestamp(w.id, now) // advance wts without a transaction
	w.maintain(now)
}

// leaderMaintain is worker 0's extra duty: after observing a full
// quiescence round it resets the flags, advances the epoch, and updates
// min_wts/min_rts; every BackoffUpdatePeriod it runs the contention
// regulator's hill-climbing step (§3.9).
func (w *Worker) leaderMaintain(now int64) {
	e := w.eng
	all := true
	for i := range e.quiesce {
		if !e.quiesce[i].Load() {
			all = false
			break
		}
	}
	if all {
		for i := range e.quiesce {
			e.quiesce[i].Store(false)
		}
		e.clock.UpdateMins()
		e.epoch.Add(1)
	}
	var commits uint64
	for _, ww := range e.workers {
		commits += ww.stats.commits.Load()
	}
	e.reg.maybeAdjust(now, commits, w.rng)
}

// collectGarbage drains the front of the worker's GC queue: items whose
// version has fallen below min_rts trigger concurrent chain detachment. The
// queue is wts-ordered, so processing stops at the first ineligible item.
func (w *Worker) collectGarbage() {
	minRTS := w.eng.clock.MinRTS()
	for w.gcHead < len(w.gcQueue) {
		it := w.gcQueue[w.gcHead]
		if it.wts >= minRTS {
			break
		}
		w.gcQueue[w.gcHead] = gcItem{}
		w.gcHead++
		w.collect(it, minRTS)
	}
	if w.gcHead > 256 && w.gcHead*2 > len(w.gcQueue) {
		n := copy(w.gcQueue, w.gcQueue[w.gcHead:])
		w.gcQueue = w.gcQueue[:n]
		w.gcHead = 0
	}
}

// collect performs concurrent garbage collection for one committed version
// (§3.8): (a) acquire the record's GC lock, discarding the item on failure
// to avoid excessive attempts on contended records; (b) verify
// v.wts > record.min_wts so the version pointer is not dangling; then detach
// the earlier-version chain, update record.min_wts, and move the detached
// versions to the limbo list for epoch-delayed reuse.
func (w *Worker) collect(it gcItem, minRTS clock.Timestamp) {
	h := it.tbl.st.Head(it.rid)
	if !h.TryLockGC() {
		return
	}
	if it.wts <= h.GCMinWTS() {
		h.UnlockGC()
		return
	}
	v := it.ver
	chain := v.Next()
	v.SetNext(nil)
	h.SetGCMinWTS(it.wts)
	freedRid := false
	if v.Status() == storage.StatusDeleted && h.Latest() == v {
		// The tombstone is the record's only version and is invisible to
		// every current and future transaction; reclaim the record ID.
		if h.CASLatest(v, nil) {
			freedRid = true
		}
	}
	h.UnlockGC()
	batch := w.gcScratch[:0]
	for c := chain; c != nil; {
		next := c.Next()
		if invariantsEnabled {
			// Reclamation safety (§3.8): every detached version is earlier
			// than the collected version (list order) and below the min_rts
			// horizon, so no current or future transaction can read it; and a
			// PENDING version can never fall below min_rts, because its
			// writer's timestamp is ≥ min_wts > min_rts.
			storage.Assertf(c.WTS < it.wts, "gc: detached wts %v not below collected wts %v", c.WTS, it.wts)
			storage.Assertf(c.WTS < minRTS, "gc: reclaiming wts %v at or above min_rts %v", c.WTS, minRTS)
			storage.Assertf(c.Status() != storage.StatusPending, "gc: detached PENDING version (wts %v)", c.WTS)
		}
		batch = append(batch, limboEntry{v: c, h: h})
		c = next
	}
	if freedRid {
		batch = append(batch, limboEntry{v: v, h: h})
		w.addLimboFree(it.tbl, it.rid)
	}
	for _, e := range batch {
		w.addLimbo(e)
	}
	w.gcScratch = batch[:0]
}

// addLimbo defers a detached version's reuse by limboDelayEpochs quiescence
// rounds.
func (w *Worker) addLimbo(e limboEntry) {
	b := w.limboAppend()
	b.entries = append(b.entries, e)
}

func (w *Worker) addLimboFree(tbl *Table, rid storage.RecordID) {
	b := w.limboAppend()
	b.frees = append(b.frees, ridFree{tbl: tbl, rid: rid})
}

// limboAppend returns the current epoch's limbo batch, creating it if
// needed.
func (w *Worker) limboAppend() *limboBatch {
	epoch := w.eng.epoch.Load()
	if n := len(w.limbo); n > 0 && w.limbo[n-1].epoch == epoch {
		return &w.limbo[n-1]
	}
	var b limboBatch
	if n := len(w.limboSpare); n > 0 {
		b = w.limboSpare[n-1] // reuse drained entry/free slice capacity
		w.limboSpare = w.limboSpare[:n-1]
	}
	b.epoch = epoch
	w.limbo = append(w.limbo, b)
	return &w.limbo[len(w.limbo)-1]
}

// processLimbo returns versions whose delay has expired to the worker's
// pool (or releases inline slots) and frees reclaimed record IDs.
func (w *Worker) processLimbo() {
	epoch := w.eng.epoch.Load()
	n := 0
	reclaimed := uint64(0)
	for n < len(w.limbo) && w.limbo[n].epoch+limboDelayEpochs <= epoch {
		b := &w.limbo[n]
		for _, e := range b.entries {
			if e.v.Inline() {
				e.h.ReleaseInline()
			} else {
				w.pool.Put(e.v)
			}
		}
		reclaimed += uint64(len(b.entries))
		for _, f := range b.frees {
			f.tbl.st.FreeRecordID(w.id, f.rid)
		}
		n++
	}
	if reclaimed > 0 {
		w.stats.addReclaimed(reclaimed)
	}
	if n > 0 {
		for i := 0; i < n; i++ {
			b := w.limbo[i]
			b.epoch = 0
			b.entries = b.entries[:0]
			b.frees = b.frees[:0]
			w.limboSpare = append(w.limboSpare, b)
		}
		w.limbo = append(w.limbo[:0], w.limbo[n:]...)
	}
}
