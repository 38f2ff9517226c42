package core

import (
	"time"

	"cicada/internal/clock"
	"cicada/internal/fault"
	"cicada/internal/storage"
	"cicada/internal/telemetry"
	"cicada/internal/trace"
)

// Commit validates and commits the transaction (§3.4, §3.5). On a conflict
// it rolls back and returns ErrAborted. The validation order is:
//
//  0. pre-commit hooks (deferred multi-version index updates, §3.6)
//  1. contention-aware write-set sorting (adaptively skipped)
//  2. early version consistency check (adaptively skipped)
//  3. pending version installation, in write-set order
//  4. read timestamp update
//  5. version consistency check
//  6. logging
//  7. write phase: flip PENDING → COMMITTED/DELETED
//
//cicada:noalloc
func (t *Txn) Commit() error {
	if !t.active {
		return ErrTxnClosed
	}
	w := t.worker
	tel := w.tel
	timed := tel != nil || t.sampled
	if t.readOnly {
		// Read-only transactions never validate (§3.1).
		t.active = false
		w.stats.incCommit()
		if timed {
			now := time.Now()
			d := now.Sub(t.telStart)
			if tel != nil {
				tel.phase[phaseExecute].ObserveDuration(d)
			}
			if t.sampled {
				w.tr.Record(trace.EvPhaseExecute, t.telStart.UnixNano(), nonNegNs(d), uint64(t.ts), 0)
				w.tr.Record(trace.EvTxnCommit, t.telStart.UnixNano(), nonNegNs(d), uint64(t.ts), 0)
			}
		}
		t.runCommitHooks()
		return nil
	}
	if timed {
		t.telValStart = time.Now()
		d := t.telValStart.Sub(t.telStart)
		if tel != nil {
			tel.phase[phaseExecute].ObserveDuration(d)
		}
		if t.sampled {
			w.tr.Record(trace.EvPhaseExecute, t.telStart.UnixNano(), nonNegNs(d), uint64(t.ts), 0)
		}
	}
	for _, h := range t.hooks {
		if err := h.TxnPreCommit(t); err != nil {
			t.rollbackCC(AbortPreCommit)
			return ErrAborted
		}
	}
	opts := &t.eng.opts
	skip := w.consecutiveCommits >= opts.AdaptiveSkipThreshold
	if skip && !opts.NoHeatTracking && len(t.writes) > 0 && t.writeSetHot() {
		// Per-record refinement of the §3.5 streak skip: a run of commits
		// proves the worker's recent footprint was uncontended, but a hot
		// key in *this* write set says otherwise — force the contention
		// sort and the early consistency check for this transaction.
		skip = false
		w.stats.incHeatForced()
	}
	if len(t.writes) > 0 {
		if !opts.NoSortWriteSet && !skip {
			t.sortWriteSetByContention()
		}
		if !opts.NoPreCheck && !skip {
			if !t.checkVersionConsistency() {
				return t.failCommit(t.checkAbortReason(AbortPreCheck))
			}
		}
		for _, i := range t.writes {
			a := &t.accesses[i]
			if a.newVer == nil || a.installed {
				continue
			}
			if ok, reason := t.install(a); !ok {
				t.conflictKey = ownKey(a.tbl.ID, a.rid)
				return t.failCommit(reason)
			}
		}
	}
	slack := clock.Timestamp(opts.HeatRTSSlackTicks << clock.ThreadIDBits)
	coarse := slack != 0 && !opts.NoHeatTracking
	hotThreshold := uint32(opts.HeatHotThreshold)
	for _, i := range t.reads {
		a := &t.accesses[i]
		if a.readVer != nil {
			if coarse && w.heat.get(ownKey(a.tbl.ID, a.rid)) < hotThreshold {
				// Coarse rts maintenance for cold records: skip the CAS when
				// a previous coarse raise already covers this timestamp, and
				// otherwise over-raise by the slack so the next slack's worth
				// of cold reads skip it too. rts may only over-approximate
				// (it conservatively aborts the cold record's rare writers),
				// so serializability is untouched.
				if a.readVer.RTS() >= t.ts {
					w.stats.incHeatRTSSkip()
					continue
				}
				a.readVer.RaiseRTS(t.ts + slack)
				w.stats.incHeatRTSCoarse()
				continue
			}
			a.readVer.RaiseRTS(t.ts)
		} else if h := a.tbl.st.Head(a.rid); h != nil {
			h.RaiseAbsentRTS(t.ts)
		}
	}
	if !t.checkVersionConsistency() {
		return t.failCommit(t.checkAbortReason(AbortValidation))
	}
	if lg := t.eng.logger; lg != nil {
		if err := fault.Inject(fault.CoreLog); err != nil {
			return t.failCommit(AbortLogger)
		}
		if err := t.log(lg); err != nil {
			return t.failCommit(AbortLogger)
		}
	}
	var writeStart time.Time
	if timed {
		writeStart = time.Now()
		d := writeStart.Sub(t.telValStart)
		if tel != nil {
			tel.phase[phaseValidate].ObserveDuration(d)
		}
		if t.sampled {
			w.tr.Record(trace.EvPhaseValidate, t.telValStart.UnixNano(), nonNegNs(d), uint64(t.ts), 0)
		}
	}
	// Write phase: make the new versions usable by other transactions.
	for _, i := range t.writes {
		a := &t.accesses[i]
		if a.newVer == nil {
			continue
		}
		if invariantsEnabled && a.installed && !opts.NoWaitPending {
			// At the moment a pending version commits, the committed version
			// below it must not have been read beyond tx.ts (§3.4). Under
			// NoWaitPending speculative readers may violate this and abort
			// later instead, so the check is skipped there.
			storage.CheckCommitOrder(a.newVer, "commit")
		}
		if a.kind == accDelete {
			a.newVer.SetStatus(storage.StatusDeleted)
		} else {
			a.newVer.SetStatus(storage.StatusCommitted)
		}
	}
	w.enqueueGC(t)
	t.eng.clock.OnCommit(w.id)
	w.consecutiveCommits++
	w.stats.incCommit()
	if timed {
		now := time.Now()
		d := now.Sub(writeStart)
		if tel != nil {
			tel.phase[phaseWrite].ObserveDuration(d)
		}
		if t.sampled {
			w.tr.Record(trace.EvPhaseWrite, writeStart.UnixNano(), nonNegNs(d), uint64(t.ts), 0)
			w.tr.Record(trace.EvTxnCommit, t.telStart.UnixNano(), nonNegNs(now.Sub(t.telStart)), uint64(t.ts),
				uint64(len(t.reads))<<32|uint64(len(t.writes))&0xffffffff)
		}
	}
	t.active = false
	t.runCommitHooks()
	return nil
}

// checkAbortReason classifies a consistency-check failure: a pending-wait
// timeout inside resumeSearch overrides the generic reason.
//
//cicada:noalloc
func (t *Txn) checkAbortReason(generic AbortReason) AbortReason {
	if t.pendingTimedOut {
		return AbortPendingWait
	}
	return generic
}

//cicada:noalloc
func (t *Txn) runCommitHooks() {
	for _, h := range t.hooks {
		h.TxnCommitted(t)
	}
}

// Abort rolls the transaction back at the application's request.
//
//cicada:noalloc
func (t *Txn) Abort() {
	if !t.active {
		return
	}
	if t.sampled {
		if tr := t.worker.tr; tr != nil && tr.Enabled() {
			tr.Record(trace.EvTxnAbort, t.telStart.UnixNano(),
				nonNegNs(time.Since(t.telStart)), noConflictKey, uint64(AbortUser))
		}
	}
	t.rollback()
}

// failCommit records a concurrency-control abort and rolls back.
//
//cicada:noalloc
func (t *Txn) failCommit(reason AbortReason) error {
	t.rollbackCC(reason)
	return ErrAborted
}

// rollbackCC is a rollback caused by a conflict: it grants the clock boost,
// resets the adaptive-skip streak, and feeds the abort taxonomy, latency
// histogram, and flight recorder.
//
//cicada:noalloc
func (t *Txn) rollbackCC(reason AbortReason) {
	w := t.worker
	t.lastCC = reason
	w.stats.incAbort(reason)
	if !t.eng.opts.NoHeatTracking && t.conflictKey != noConflictKey {
		// Every keyed CC abort funnels through here (read-phase early
		// aborts via abortNow and validation failures via failCommit), so
		// this is the single abort-attribution bump site.
		w.heat.bump(t.conflictKey)
		w.stats.incHeatAbortBump()
	}
	w.consecutiveCommits = 0
	t.eng.clock.OnAbort(w.id)
	tel := w.tel
	traceAbort := w.tr != nil && w.tr.Enabled()
	if tel != nil || traceAbort {
		now := time.Now()
		// Begin time and phase split are only known when the transaction was
		// timed (telemetry attached or trace-sampled); an untimed abort is
		// recorded as an instant so the always-on abort trace never reads a
		// stale telStart.
		start := now
		var execNs, valNs uint64
		if tel != nil || t.sampled {
			start = t.telStart
			if t.telValStart.IsZero() {
				execNs = nonNegNs(now.Sub(t.telStart))
			} else {
				execNs = nonNegNs(t.telValStart.Sub(t.telStart))
				valNs = nonNegNs(now.Sub(t.telValStart))
			}
		}
		if tel != nil {
			tel.abortLat.ObserveDuration(now.Sub(t.telStart))
			tel.rec.Record(telemetry.TraceSample{
				TS:            uint64(t.ts),
				Reason:        uint64(reason),
				StartUnixNano: t.telStart.UnixNano(),
				ExecuteNs:     execNs,
				ValidateNs:    valNs,
				Reads:         uint64(len(t.reads)),
				Writes:        uint64(len(t.writes)),
			})
		}
		if traceAbort {
			// Concurrency-control aborts are always traced — they are the
			// rare diagnostic signal the contention report is built from.
			w.tr.Record(trace.EvTxnAbort, start.UnixNano(), execNs+valNs,
				t.conflictKey, uint64(reason))
		}
	}
	t.rollback()
}

// rollback undoes the transaction: installed pending versions become
// ABORTED (and are unlinked from the list head when possible); uninstalled
// staged versions are deallocated for immediate reuse, which is safe because
// they were never reachable (§3.4). Insert record IDs are reclaimed.
//
//cicada:noalloc
func (t *Txn) rollback() {
	w := t.worker
	for _, i := range t.writes {
		a := &t.accesses[i]
		nv := a.newVer
		if nv == nil {
			continue
		}
		h := a.tbl.st.Head(a.rid)
		if !a.installed {
			t.unstage(h, nv)
			if a.kind == accInsert {
				a.tbl.st.FreeRecordID(w.id, a.rid)
			}
			continue
		}
		nv.SetStatus(storage.StatusAborted)
		// Opportunistic unlink at the list head; mid-list aborted versions
		// are skipped by readers and reclaimed by chain detachment later.
		if h.Latest() == nv && h.CASLatest(nv, nv.Next()) {
			nv.SetNext(nil)
			if a.kind == accInsert {
				// The record ID was never published (index updates are
				// deferred), so no concurrent reader can hold nv.
				t.unstage(h, nv)
				a.tbl.st.FreeRecordID(w.id, a.rid)
			} else {
				w.addLimbo(limboEntry{v: nv, h: h})
			}
		}
	}
	t.active = false
	for _, h := range t.hooks {
		h.TxnAborted(t)
	}
}

// sortWriteSetByContention partially sorts the write set in descending order
// of approximate contention — the wts of each record's latest version — so
// validation touches the most contended records first and detects conflicts
// before installing versions that would become garbage (§3.5). Only the
// top-k entries are sorted (k=8), costing O(n·k).
const contentionSortK = 8

//cicada:noalloc
func (t *Txn) sortWriteSetByContention() {
	n := len(t.writes)
	if n < 2 {
		return
	}
	// Reuse the per-Txn scratch; it grows to the write-set high-water mark
	// and then validation is allocation-free.
	if cap(t.sortKeys) < n {
		t.sortKeys = make([]clock.Timestamp, n)
	}
	keys := t.sortKeys[:n]
	for j, i := range t.writes {
		a := &t.accesses[i]
		if a.newVer == nil || a.kind == accInsert {
			keys[j] = 0
			continue
		}
		if v := a.tbl.st.Head(a.rid).Latest(); v != nil {
			keys[j] = v.WTS
		}
	}
	k := contentionSortK
	if k > n {
		k = n
	}
	// Partial selection sort: place the k most contended entries first.
	for sel := 0; sel < k; sel++ {
		best := sel
		for j := sel + 1; j < n; j++ {
			if keys[j] > keys[best] {
				best = j
			}
		}
		if best != sel {
			keys[sel], keys[best] = keys[best], keys[sel]
			t.writes[sel], t.writes[best] = t.writes[best], t.writes[sel]
		}
	}
}

// install links the access's staged version into the record's version list
// as PENDING, keeping the list sorted by wts (§3.4 pending version
// installation). It performs the same early aborts as the read phase; on
// failure it reports the abort reason (the write-latest rule or the rts
// re-check). Installation is deadlock-free: insertion position is determined
// by transaction timestamps, so no dependency cycle can form.
//
//cicada:noalloc
func (t *Txn) install(a *access) (bool, AbortReason) {
	h := a.tbl.st.Head(a.rid)
	nv := a.newVer
	nv.PrepareInstall(t.ts)
	checkLatest := !t.eng.opts.NoWriteLatestRule &&
		(a.kind == accRMW || a.kind == accDelete)
	for {
		var prev *storage.Version
		cur := h.Latest()
		prevWTS := ^clock.Timestamp(0)
		restart := false
		for cur != nil && cur.WTS > t.ts {
			if cur.WTS >= prevWTS {
				restart = true
				break
			}
			if checkLatest && cur.Status() != storage.StatusAborted {
				// write-latest-version-only: a COMMITTED or PENDING later
				// version will abort this RMW anyway (§3.2).
				return false, AbortWriteLatest
			}
			prevWTS = cur.WTS
			prev = cur
			cur = cur.Next()
		}
		if restart {
			continue
		}
		if cur != nil && cur.WTS == t.ts {
			// Duplicate timestamp cannot happen (Lemma 1); a recycled node
			// is the only explanation — restart.
			continue
		}
		// Early abort against the version just below the insertion point:
		// if the first committed version below was read after tx.ts, the
		// consistency check must fail (§3.4).
		if vis := firstCommitted(cur); vis != nil {
			if vis.RTS() > t.ts {
				return false, AbortValidation
			}
		} else if h.AbsentRTS() > t.ts && a.kind != accInsert {
			return false, AbortValidation
		}
		nv.SetNext(cur)
		var ok bool
		if prev == nil {
			ok = h.CASLatest(cur, nv)
		} else {
			ok = prev.CASNext(cur, nv)
		}
		if ok {
			if invariantsEnabled {
				storage.CheckChainSorted(h.Latest(), "install")
			}
			a.installed = true
			a.laterVer = prev
			return true, 0
		}
	}
}

// firstCommitted returns the first COMMITTED or DELETED version at or below
// v, without waiting on PENDING versions (they are handled by the
// consistency check).
//
//cicada:noalloc
func firstCommitted(v *storage.Version) *storage.Version {
	for ; v != nil; v = v.Next() {
		switch v.Status() {
		case storage.StatusCommitted, storage.StatusDeleted:
			return v
		}
	}
	return nil
}

// Stale reports whether validation would reject the transaction as it
// stands. An index asks it when a node pointer dangles: in a doomed snapshot
// that is a conflict to retry, in a current one the structure is broken.
func (t *Txn) Stale() bool { return !t.checkVersionConsistency() }

// checkVersionConsistency verifies (a) that every previously visible version
// in the read set is still the currently visible version, and (b) that the
// currently visible version of every record in the write set has rts ≤
// tx.ts (§3.4). It is used both as the early precheck and as the required
// final check; repeated searches resume from each access's later_version
// (§3.5).
//
//cicada:noalloc
func (t *Txn) checkVersionConsistency() bool {
	for _, i := range t.reads {
		a := &t.accesses[i]
		vis := t.resumeSearch(a)
		t.emitWait(a.tbl, a.rid)
		if t.pendingTimedOut || t.specSkippedPending || vis != a.readVer {
			// A pending-wait timeout fails the check even when the
			// indeterminate result happens to match (e.g. an absent read).
			// Likewise a NoWaitPending search that speculatively skipped an
			// unresolved PENDING version between the read version and tx.ts:
			// that writer may still commit, in which case this read would be
			// stale (docs/CONCURRENCY.md "No-wait validation ordering").
			t.conflictKey = ownKey(a.tbl.ID, a.rid)
			return false
		}
	}
	for _, i := range t.writes {
		a := &t.accesses[i]
		if a.newVer == nil || a.kind == accInsert {
			continue
		}
		if a.kind == accRMW || a.kind == accDelete {
			// Visibility is covered by the read-set pass above, but the rts
			// of the version being replaced must be re-checked: a concurrent
			// reader may raise it between our install-time check and here
			// (the install check and a reader's raise are not one atomic
			// step). Without this, a reader serialized after tx.ts can have
			// read the version this transaction replaces — the root cause of
			// the TestSerializabilityNoWait flake (docs/CONCURRENCY.md).
			if a.readVer != nil && a.readVer.RTS() > t.ts {
				t.conflictKey = ownKey(a.tbl.ID, a.rid)
				return false
			}
			continue
		}
		// Blind write: the currently visible version must not have been
		// read after tx.ts.
		vis := t.resumeSearch(a)
		t.emitWait(a.tbl, a.rid)
		if t.pendingTimedOut || t.specSkippedPending {
			t.conflictKey = ownKey(a.tbl.ID, a.rid)
			return false
		}
		if vis != nil {
			if vis.RTS() > t.ts {
				t.conflictKey = ownKey(a.tbl.ID, a.rid)
				return false
			}
		} else if h := a.tbl.st.Head(a.rid); h.AbsentRTS() > t.ts {
			t.conflictKey = ownKey(a.tbl.ID, a.rid)
			return false
		}
	}
	return true
}

// writeSetHot reports whether any write-set key is at or above the hot
// threshold in this worker's heat table.
//
//cicada:noalloc
func (t *Txn) writeSetHot() bool {
	w := t.worker
	hot := uint32(t.eng.opts.HeatHotThreshold)
	for _, i := range t.writes {
		a := &t.accesses[i]
		if a.newVer == nil {
			continue
		}
		if w.heat.get(ownKey(a.tbl.ID, a.rid)) >= hot {
			return true
		}
	}
	return false
}

// log hands the write and insert sets to the durability logger (§3.7).
//
//cicada:noalloc
func (t *Txn) log(lg Logger) error {
	t.logBuf = t.logBuf[:0]
	for _, i := range t.writes {
		a := &t.accesses[i]
		if a.newVer == nil || a.promoted {
			continue
		}
		e := LogEntry{Table: a.tbl.ID, Record: a.rid}
		if a.kind == accDelete {
			e.Deleted = true
		} else {
			e.Data = a.newVer.Data
		}
		t.logBuf = append(t.logBuf, e)
	}
	if len(t.logBuf) == 0 {
		return nil
	}
	return lg.Log(t.worker.id, t.ts, t.logBuf)
}
