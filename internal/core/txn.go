package core

import (
	"runtime"
	"time"

	"cicada/internal/clock"
	"cicada/internal/storage"
	"cicada/internal/trace"
)

// accessKind classifies a transaction's record accesses.
type accessKind uint8

const (
	accRead   accessKind = iota
	accWrite             // blind write: no dependency on the previous value
	accRMW               // read-modify-write
	accInsert            // new record on a freshly allocated record ID
	accDelete            // install a DELETED tombstone version
)

// access is one entry in the transaction's read/write/insert sets.
type access struct {
	tbl  *Table
	rid  storage.RecordID
	kind accessKind
	// readVer is the visible version observed during the read phase; nil
	// when the record was absent or the access is an insert.
	readVer *storage.Version
	// laterVer is the version immediately later than tx.ts observed during
	// the last search; repeated searches resume from it (§3.5 incremental
	// version search).
	laterVer *storage.Version
	// newVer is the locally staged new version for write-type accesses.
	newVer *storage.Version
	// installed is set once newVer is linked into the record's version list.
	installed bool
	// promoted marks an inlining promotion write (§3.3): a read upgraded to
	// an RMW that copies the same data into the inline slot, and so is not
	// logged. Cleared when the transaction goes on to write the record.
	promoted bool
}

// Txn is a Cicada transaction. It is owned by a single Worker and reused
// across transactions to avoid per-transaction allocation.
type Txn struct {
	eng      *Engine
	worker   *Worker
	ts       clock.Timestamp
	readOnly bool
	active   bool
	// pendingTimedOut is set when a PENDING spin-wait exceeded
	// Options.PendingWaitLimit; the caller aborts with AbortPendingWait.
	pendingTimedOut bool
	// telStart / telValStart mark the begin and validation-entry times for
	// phase latency histograms, the flight recorder, and trace events. Only
	// set when the worker has telemetry attached (worker.tel != nil) or the
	// transaction is trace-sampled; telStart is the begin reading the
	// envelope already took, so a disabled engine reads no further clocks.
	telStart    time.Time
	telValStart time.Time
	// sampled marks a transaction chosen by trace sampling: it emits
	// begin/commit/phase events and times its pending-version waits.
	sampled bool
	// conflictKey remembers the key (ownKey form) that caused a
	// concurrency-control abort, for the abort trace event's attribution;
	// noConflictKey when the abort has no single key.
	conflictKey uint64
	// lastCC records the reason of the most recent concurrency-control
	// abort on this transaction slot; RunLimited reports it when a retry
	// budget is exhausted so callers (the network server's wire error
	// codes) can surface the abort taxonomy.
	lastCC AbortReason
	// lastWaitNs carries the pending-wait time accumulated by the most
	// recent visibility search to the caller's emitWait.
	lastWaitNs uint64
	// waitedPending marks that the most recent visibility search spun on a
	// PENDING version at least once, regardless of trace sampling; emitWait
	// consumes it to attribute the stall to the record's heat.
	waitedPending bool
	// specSkippedPending marks that the most recent resumeSearch (under
	// Options.NoWaitPending) speculatively skipped an unresolved PENDING
	// version at or below tx.ts. The validation consistency check must fail
	// then: the skipped writer may commit, which would make this
	// transaction's read stale (docs/CONCURRENCY.md "No-wait validation
	// ordering").
	specSkippedPending bool

	accesses []access
	// writes holds indexes into accesses for write-type entries, in
	// validation order (possibly contention-sorted).
	writes []int
	// reads holds indexes into accesses for read-set entries.
	reads []int
	// own maps (table,record) → accesses index for read-own-writes and
	// read-set dedup, without per-access map-runtime hashing.
	own ownTable
	// sortKeys is the reusable contention-sort scratch (§3.5); sized to the
	// write-set high-water mark.
	sortKeys []clock.Timestamp
	// logBuf is the reusable log entry buffer handed to the Logger.
	logBuf []LogEntry
	// hooks receive lifecycle callbacks: pre-commit at the start of
	// validation (deferred multi-version index updates, §3.6), then
	// committed or aborted once the outcome is decided. The slice is reused
	// across transactions.
	hooks []TxnHook
}

// TxnHook observes a transaction's lifecycle with typed callbacks. Hook
// values registered with AddHook are typically long-lived per-worker
// objects, so registration allocates nothing — unlike the closure-based
// AddPreCommit/AddOnCommit/AddOnAbort convenience wrappers, which box one
// adapter per call and are kept for tests and cold paths.
type TxnHook interface {
	// TxnPreCommit runs at the start of validation, in registration order;
	// returning an error aborts the transaction.
	TxnPreCommit(t *Txn) error
	// TxnCommitted runs after a successful commit.
	TxnCommitted(t *Txn)
	// TxnAborted runs after a rollback.
	TxnAborted(t *Txn)
}

//cicada:noalloc
func ownKey(tbl TableID, rid storage.RecordID) uint64 {
	return uint64(tbl)<<48 | uint64(rid)&0xffffffffffff
}

// begin resets the slot for a transaction with timestamp ts that starts at
// reading now.
//
//cicada:noalloc
func (t *Txn) begin(ts clock.Timestamp, now int64, readOnly bool) {
	t.ts = ts
	t.readOnly = readOnly
	t.active = true
	t.pendingTimedOut = false
	t.conflictKey = noConflictKey
	t.lastWaitNs = 0
	t.waitedPending = false
	t.specSkippedPending = false
	tr := t.worker.tr
	t.sampled = tr != nil && tr.Enabled() && tr.SampleTxn()
	if t.worker.tel != nil || t.sampled {
		t.telStart = t.eng.clock.Time(now)
		t.telValStart = time.Time{}
	}
	if t.sampled {
		tr.Record(trace.EvTxnBegin, t.telStart.UnixNano(), 0, uint64(ts), 0)
	}
	t.accesses = t.accesses[:0]
	t.writes = t.writes[:0]
	t.reads = t.reads[:0]
	t.logBuf = t.logBuf[:0]
	for i := range t.hooks {
		t.hooks[i] = nil // drop references; keep capacity
	}
	t.hooks = t.hooks[:0]
	t.own.reset()
}

// Timestamp returns the transaction's timestamp.
func (t *Txn) Timestamp() clock.Timestamp { return t.ts }

// ReadOnly reports whether this is a read-only snapshot transaction.
func (t *Txn) ReadOnly() bool { return t.readOnly }

// Worker returns the owning worker's ID.
func (t *Txn) Worker() int { return t.worker.id }

// Engine returns the engine this transaction runs on.
func (t *Txn) Engine() *Engine { return t.eng }

// searchVisible walks the record's version list latest-to-earliest and
// returns the visible version for ts plus the version immediately later than
// ts (§3.2). It spin-waits on PENDING versions (or speculatively skips them
// with Options.NoWaitPending) and restarts if it observes evidence of a
// recycled node (out-of-order wts or an UNUSED inline slot).
//
//cicada:noalloc
func (t *Txn) searchVisible(h *storage.Head) (visible, later *storage.Version) {
	noWait := t.eng.opts.NoWaitPending
	waitLimit := t.eng.opts.PendingWaitLimit
	spins := 0
	var waitStart time.Time
restart:
	later = nil
	prevWTS := ^clock.Timestamp(0)
	v := h.Latest()
	for v != nil {
		wts := v.WTS
		if wts >= prevWTS {
			goto restart // chain mutated under us (recycled node)
		}
		prevWTS = wts
		if wts > t.ts {
			later = v
			v = v.Next()
			continue
		}
		if wts == t.ts && !t.readOnly {
			// Timestamps are unique, so a version at exactly tx.ts is this
			// transaction's own staged write reached through a different
			// access entry (e.g. a record ID freed and re-inserted within
			// the transaction); the read observes the version below it.
			v = v.Next()
			continue
		}
		switch v.Status() {
		case storage.StatusPending:
			if noWait {
				v = v.Next()
				continue
			}
			t.waitedPending = true
			if t.sampled && waitStart.IsZero() {
				waitStart = time.Now()
			}
			if waitLimit > 0 {
				spins++
				if spins > waitLimit {
					t.pendingTimedOut = true
					t.noteWait(waitStart)
					return nil, later
				}
			}
			runtime.Gosched()
			// Re-check the same version; the writer is validating and will
			// commit or abort shortly.
		case storage.StatusAborted:
			v = v.Next()
		case storage.StatusUnused:
			goto restart
		default: // COMMITTED or DELETED
			t.noteWait(waitStart)
			return v, later
		}
	}
	t.noteWait(waitStart)
	return nil, later
}

// resumeSearch re-runs the visibility search during validation, resuming
// from the access's remembered laterVer when possible (§3.5 incremental
// version search). It skips the transaction's own pending version.
//
//cicada:noalloc
func (t *Txn) resumeSearch(a *access) (visible *storage.Version) {
	h := a.tbl.st.Head(a.rid)
	if h == nil {
		return nil // read of a never-allocated record ID
	}
	noWait := t.eng.opts.NoWaitPending
	waitLimit := t.eng.opts.PendingWaitLimit
	spins := 0
	t.specSkippedPending = false
	var waitStart time.Time
restart:
	var v *storage.Version
	prevWTS := ^clock.Timestamp(0)
	if lv := a.laterVer; lv != nil && lv.Status() != storage.StatusUnused && lv.WTS > t.ts {
		// Any version that could change our visibility appears after
		// laterVer in the list, so resume there.
		prevWTS = lv.WTS
		v = lv.Next()
	} else {
		a.laterVer = nil
		v = h.Latest()
	}
	for v != nil {
		wts := v.WTS
		if wts >= prevWTS {
			a.laterVer = nil
			goto restart
		}
		prevWTS = wts
		if wts > t.ts {
			a.laterVer = v
			v = v.Next()
			continue
		}
		if wts == t.ts {
			// This transaction's own installed version (timestamps are
			// unique): the previously visible version lies below it.
			v = v.Next()
			continue
		}
		switch v.Status() {
		case storage.StatusPending:
			if noWait {
				// The walk already passed the wts > tx.ts region, so this
				// pending version is at or below tx.ts and unresolved: its
				// writer may still commit between it and our read version.
				// Record the speculation so the consistency check fails
				// rather than certify a possibly-stale read.
				t.specSkippedPending = true
				v = v.Next()
				continue
			}
			t.waitedPending = true
			if t.sampled && waitStart.IsZero() {
				waitStart = time.Now()
			}
			if waitLimit > 0 {
				spins++
				if spins > waitLimit {
					// Make the consistency check fail; Commit classifies
					// the abort as AbortPendingWait via the flag.
					t.pendingTimedOut = true
					t.noteWait(waitStart)
					return nil
				}
			}
			runtime.Gosched()
		case storage.StatusAborted:
			v = v.Next()
		case storage.StatusUnused:
			a.laterVer = nil
			goto restart
		default:
			t.noteWait(waitStart)
			return v
		}
	}
	t.noteWait(waitStart)
	return nil
}

// hasCommittedOrPendingLater reports whether a version later than tx.ts that
// is COMMITTED or PENDING exists above the given access's visible version.
// Used by the write-latest-version-only early abort rule for RMW (§3.2).
//
//cicada:noalloc
func laterBlocksRMW(h *storage.Head, ts clock.Timestamp, ownNew *storage.Version) bool {
	for v := h.Latest(); v != nil; v = v.Next() {
		if v.WTS <= ts {
			return false
		}
		if v == ownNew {
			continue
		}
		switch v.Status() {
		case storage.StatusCommitted, storage.StatusPending, storage.StatusDeleted:
			return true
		}
	}
	return false
}

// abortNow rolls back after a read-phase early abort (§3.2). Early aborts
// are conflict aborts: they count toward the abort statistics, grant the
// temporary clock boost, and reset the adaptive-skip streak, exactly like
// validation-phase aborts.
//
//cicada:noalloc
func (t *Txn) abortNow(reason AbortReason) error {
	t.rollbackCC(reason)
	return ErrAborted
}

// Read returns the record's data at the transaction's timestamp. The
// returned slice aliases shared memory: it is valid until the transaction
// finishes and must not be modified (record data is immutable once
// committed, so no local copy or re-validation read is needed — Cicada has
// no "extra reads", §2.1/§3.2).
//
//cicada:noalloc
func (t *Txn) Read(tbl *Table, rid storage.RecordID) ([]byte, error) {
	if !t.active {
		return nil, ErrTxnClosed
	}
	if i, ok := t.own.get(ownKey(tbl.ID, rid)); ok {
		a := &t.accesses[i]
		switch a.kind {
		case accDelete:
			return nil, ErrNotFound
		case accRead:
			if a.readVer == nil || a.readVer.Status() == storage.StatusDeleted {
				return nil, ErrNotFound
			}
			return a.readVer.Data, nil
		default:
			return a.newVer.Data, nil
		}
	}
	h := tbl.st.Head(rid)
	if h == nil {
		if !t.readOnly {
			t.trackRead(tbl, rid, nil, nil)
		}
		return nil, ErrNotFound
	}
	visible, later := t.searchVisible(h)
	t.emitWait(tbl, rid)
	if t.readOnly {
		if visible == nil || visible.Status() == storage.StatusDeleted {
			return nil, ErrNotFound
		}
		return visible.Data, nil
	}
	if t.pendingTimedOut {
		t.conflictKey = ownKey(tbl.ID, rid)
		return nil, t.abortNow(AbortPendingWait)
	}
	t.trackRead(tbl, rid, visible, later)
	if visible == nil || visible.Status() == storage.StatusDeleted {
		return nil, ErrNotFound
	}
	t.maybePromote(tbl, h, rid, visible)
	return visible.Data, nil
}

// trackRead records a read-set entry (including absent reads, which are
// validated against later inserts).
//
//cicada:noalloc
func (t *Txn) trackRead(tbl *Table, rid storage.RecordID, visible, later *storage.Version) {
	t.accesses = append(t.accesses, access{
		tbl: tbl, rid: rid, kind: accRead, readVer: visible, laterVer: later,
	})
	i := len(t.accesses) - 1
	t.reads = append(t.reads, i)
	t.own.put(ownKey(tbl.ID, rid), i)
}

// maybePromote upgrades a read of a cold, non-inline latest version to an
// inlining promotion write (§3.3). Conditions: the version is early enough
// ((v.wts) < min_rts, so concurrent writes are rare), it is the latest
// version, and the inline slot is free.
//
//cicada:noalloc
func (t *Txn) maybePromote(tbl *Table, h *storage.Head, rid storage.RecordID, v *storage.Version) {
	if !tbl.st.Inlining() || v.Inline() || len(v.Data) > storage.InlineSize {
		return
	}
	if v.WTS >= t.eng.clock.MinRTS() {
		return
	}
	if h.Latest() != v || h.InlineVersion().Status() != storage.StatusUnused {
		return
	}
	inlineV, ok := h.TryAcquireInline(len(v.Data))
	if !ok {
		return
	}
	copy(inlineV.Data, v.Data)
	i, _ := t.own.get(ownKey(tbl.ID, rid)) // read entry added just before
	a := &t.accesses[i]
	a.kind = accRMW
	a.newVer = inlineV
	a.promoted = true
	t.writes = append(t.writes, i)
	t.worker.stats.incPromotion()
}

// stage prepares a new local version of size bytes for the record, trying
// the inline slot first (§3.3).
//
//cicada:noalloc
func (t *Txn) stage(h *storage.Head, size int) *storage.Version {
	if h != nil && t.eng.opts.Inlining {
		if v, ok := h.TryAcquireInline(size); ok {
			return v
		}
	}
	return t.worker.pool.Get(size)
}

// unstage releases a staged version that was never installed.
//
//cicada:noalloc
func (t *Txn) unstage(h *storage.Head, v *storage.Version) {
	if v == nil {
		return
	}
	if v.Inline() {
		h.ReleaseInline()
		return
	}
	t.worker.pool.Put(v)
}

// Write stages a blind write: the new data does not depend on the record's
// previous value, so no read dependency is recorded and the version may
// commit below a later committed version (§3.4 note on write-only
// operations). It returns a writable buffer for the new record data.
//
//cicada:noalloc
func (t *Txn) Write(tbl *Table, rid storage.RecordID, size int) ([]byte, error) {
	if !t.active {
		return nil, ErrTxnClosed
	}
	if t.readOnly {
		return nil, ErrReadOnly
	}
	if i, ok := t.own.get(ownKey(tbl.ID, rid)); ok {
		a := &t.accesses[i]
		switch a.kind {
		case accDelete:
			return nil, ErrNotFound
		case accRead:
			// Write after read: upgrade to an RMW entry (the read
			// dependency already exists) with a fresh, uninitialized buffer.
			h := tbl.st.Head(rid)
			nv := t.stage(h, size)
			a.kind = accRMW
			a.newVer = nv
			t.writes = append(t.writes, i)
			return nv.Data, nil
		default:
			a.promoted = false // a real write now: it must reach the redo log
			return t.restageOwn(i, size)
		}
	}
	h := tbl.st.Head(rid)
	if h == nil {
		return nil, ErrNotFound
	}
	// Early abort: if the currently visible version was read as late as a
	// timestamp after ours, validation cannot succeed (§3.2).
	visible, later := t.searchVisible(h)
	t.emitWait(tbl, rid)
	if t.pendingTimedOut {
		t.conflictKey = ownKey(tbl.ID, rid)
		return nil, t.abortNow(AbortPendingWait)
	}
	if visible != nil && visible.RTS() > t.ts {
		t.conflictKey = ownKey(tbl.ID, rid)
		return nil, t.abortNow(AbortRTSEarly)
	}
	nv := t.stage(h, size)
	t.accesses = append(t.accesses, access{
		tbl: tbl, rid: rid, kind: accWrite, laterVer: later, newVer: nv,
	})
	i := len(t.accesses) - 1
	t.writes = append(t.writes, i)
	t.own.put(ownKey(tbl.ID, rid), i)
	return nv.Data, nil
}

// restageOwn revises an existing own-write entry (write-after-write within
// one transaction), resizing its staged buffer. The caller has verified the
// entry is a write-type access.
//
//cicada:noalloc
func (t *Txn) restageOwn(i, size int) ([]byte, error) {
	a := &t.accesses[i]
	nv := a.newVer
	if cap(nv.Data) >= size {
		nv.Data = nv.Data[:size]
		return nv.Data, nil
	}
	grown := t.worker.pool.Get(size)
	copy(grown.Data, nv.Data)
	if nv.Inline() {
		// Grew past the inline limit: fall back to a pooled version.
		a.tbl.st.Head(a.rid).ReleaseInline()
	} else {
		t.worker.pool.Put(nv)
	}
	a.newVer = grown
	return grown.Data, nil
}

// Update stages a read-modify-write: it returns a writable buffer
// initialized with a copy of the visible record data (resized to newSize if
// newSize ≥ 0). The read dependency is recorded and the write-latest-
// version-only early abort applies (§3.2).
//
//cicada:noalloc
func (t *Txn) Update(tbl *Table, rid storage.RecordID, newSize int) ([]byte, error) {
	if !t.active {
		return nil, ErrTxnClosed
	}
	if t.readOnly {
		return nil, ErrReadOnly
	}
	if i, ok := t.own.get(ownKey(tbl.ID, rid)); ok {
		a := &t.accesses[i]
		switch a.kind {
		case accDelete:
			return nil, ErrNotFound
		case accRead:
			if a.readVer == nil || a.readVer.Status() == storage.StatusDeleted {
				return nil, ErrNotFound
			}
			// Upgrade read → RMW.
			size := newSize
			if size < 0 {
				size = len(a.readVer.Data)
			}
			h := tbl.st.Head(rid)
			nv := t.stage(h, size)
			n := copy(nv.Data, a.readVer.Data)
			for j := n; j < len(nv.Data); j++ {
				nv.Data[j] = 0
			}
			a.kind = accRMW
			a.newVer = nv
			t.writes = append(t.writes, i)
			return nv.Data, nil
		default:
			a.promoted = false
			if newSize >= 0 && newSize != len(a.newVer.Data) {
				return t.restageOwn(i, newSize)
			}
			return a.newVer.Data, nil
		}
	}
	h := tbl.st.Head(rid)
	if h == nil {
		return nil, ErrNotFound
	}
	visible, later := t.searchVisible(h)
	t.emitWait(tbl, rid)
	if t.pendingTimedOut {
		t.conflictKey = ownKey(tbl.ID, rid)
		return nil, t.abortNow(AbortPendingWait)
	}
	if visible == nil || visible.Status() == storage.StatusDeleted {
		t.trackRead(tbl, rid, visible, later)
		return nil, ErrNotFound
	}
	// Early aborts (§3.2): rts check and write-latest-version-only.
	if visible.RTS() > t.ts {
		t.conflictKey = ownKey(tbl.ID, rid)
		return nil, t.abortNow(AbortRTSEarly)
	}
	if !t.eng.opts.NoWriteLatestRule && later != nil && laterBlocksRMW(h, t.ts, nil) {
		t.conflictKey = ownKey(tbl.ID, rid)
		return nil, t.abortNow(AbortWriteLatest)
	}
	size := newSize
	if size < 0 {
		size = len(visible.Data)
	}
	nv := t.stage(h, size)
	if nv == visible {
		// Cannot happen: visible is committed, the inline slot was UNUSED.
		panic("core: staged over visible version")
	}
	n := copy(nv.Data, visible.Data)
	for j := n; j < len(nv.Data); j++ {
		nv.Data[j] = 0
	}
	t.accesses = append(t.accesses, access{
		tbl: tbl, rid: rid, kind: accRMW, readVer: visible, laterVer: later, newVer: nv,
	})
	i := len(t.accesses) - 1
	t.writes = append(t.writes, i)
	t.reads = append(t.reads, i)
	t.own.put(ownKey(tbl.ID, rid), i)
	return nv.Data, nil
}

// Insert creates a new record and returns its ID plus a writable buffer for
// its data. The record ID is private to the transaction until commit; on
// abort it is reclaimed immediately without the ABA problem (§3.4).
//
//cicada:noalloc
func (t *Txn) Insert(tbl *Table, size int) (storage.RecordID, []byte, error) {
	if !t.active {
		return storage.InvalidRecordID, nil, ErrTxnClosed
	}
	if t.readOnly {
		return storage.InvalidRecordID, nil, ErrReadOnly
	}
	rid := tbl.st.AllocRecordID(t.worker.id)
	h := tbl.st.Head(rid)
	nv := t.stage(h, size)
	t.accesses = append(t.accesses, access{
		tbl: tbl, rid: rid, kind: accInsert, newVer: nv,
	})
	i := len(t.accesses) - 1
	t.writes = append(t.writes, i)
	t.own.put(ownKey(tbl.ID, rid), i)
	return rid, nv.Data, nil
}

// Delete stages a record deletion: a zero-length version whose status
// becomes DELETED on commit, letting garbage collection reclaim the record
// ID (§3.2).
//
//cicada:noalloc
func (t *Txn) Delete(tbl *Table, rid storage.RecordID) error {
	if !t.active {
		return ErrTxnClosed
	}
	if t.readOnly {
		return ErrReadOnly
	}
	if i, ok := t.own.get(ownKey(tbl.ID, rid)); ok {
		a := &t.accesses[i]
		switch a.kind {
		case accDelete:
			return ErrNotFound
		case accInsert:
			// Insert+delete in one transaction: drop both.
			t.unstage(a.tbl.st.Head(a.rid), a.newVer)
			a.newVer = nil
			a.kind = accDelete
			tbl.st.FreeRecordID(t.worker.id, rid)
			t.own.del(ownKey(tbl.ID, rid))
			// Remove from the write list lazily: validation skips nil newVer.
			return nil
		case accRead:
			if a.readVer == nil || a.readVer.Status() == storage.StatusDeleted {
				return ErrNotFound
			}
			h := tbl.st.Head(rid)
			nv := t.stage(h, 0)
			a.kind = accDelete
			a.newVer = nv
			t.writes = append(t.writes, i)
			return nil
		default:
			// Write-then-delete in one transaction: the staged write becomes
			// a tombstone.
			a.promoted = false
			t.unstage(tbl.st.Head(rid), a.newVer)
			a.newVer = t.worker.pool.Get(0)
			a.kind = accDelete
			return nil
		}
	}
	h := tbl.st.Head(rid)
	if h == nil {
		return ErrNotFound
	}
	visible, later := t.searchVisible(h)
	t.emitWait(tbl, rid)
	if t.pendingTimedOut {
		t.conflictKey = ownKey(tbl.ID, rid)
		return t.abortNow(AbortPendingWait)
	}
	if visible == nil || visible.Status() == storage.StatusDeleted {
		t.trackRead(tbl, rid, visible, later)
		return ErrNotFound
	}
	if visible.RTS() > t.ts {
		t.conflictKey = ownKey(tbl.ID, rid)
		return t.abortNow(AbortRTSEarly)
	}
	if !t.eng.opts.NoWriteLatestRule && later != nil && laterBlocksRMW(h, t.ts, nil) {
		t.conflictKey = ownKey(tbl.ID, rid)
		return t.abortNow(AbortWriteLatest)
	}
	nv := t.stage(h, 0)
	t.accesses = append(t.accesses, access{
		tbl: tbl, rid: rid, kind: accDelete, readVer: visible, laterVer: later, newVer: nv,
	})
	i := len(t.accesses) - 1
	t.writes = append(t.writes, i)
	t.reads = append(t.reads, i)
	t.own.put(ownKey(tbl.ID, rid), i)
	return nil
}

// ReadDirect reads a single record without a transaction (Appendix B).
// Record data is always consistent in Cicada, so locating the visible
// version at the worker's read timestamp needs no locking or local copy.
//
//cicada:noalloc
func (w *Worker) ReadDirect(tbl *Table, rid storage.RecordID) ([]byte, bool) {
	h := tbl.st.Head(rid)
	if h == nil {
		return nil, false
	}
	ts := w.eng.clock.ReadTimestamp(w.id)
	t := &w.txn // reuse search machinery; no state is recorded
	saved, savedTimeout, savedWaited := t.ts, t.pendingTimedOut, t.waitedPending
	t.ts = ts
	v, _ := t.searchVisible(h)
	t.ts, t.pendingTimedOut, t.waitedPending = saved, savedTimeout, savedWaited
	if v == nil || v.Status() == storage.StatusDeleted {
		return nil, false
	}
	return v.Data, true
}

// AddHook registers a typed lifecycle hook for the current transaction.
// Registering a long-lived hook object (e.g. a per-worker adapter struct)
// does not allocate; the hook list is cleared when the next transaction
// begins.
func (t *Txn) AddHook(h TxnHook) { t.hooks = append(t.hooks, h) }

// preCommitFunc, onCommitFunc, and onAbortFunc adapt bare closures to
// TxnHook for the legacy convenience API. Each registration boxes one
// adapter value; hot paths should implement TxnHook on a reusable object
// and call AddHook instead.
type preCommitFunc struct{ fn func(*Txn) error }

func (h preCommitFunc) TxnPreCommit(t *Txn) error { return h.fn(t) }
func (preCommitFunc) TxnCommitted(*Txn)           {}
func (preCommitFunc) TxnAborted(*Txn)             {}

type onCommitFunc struct{ fn func() }

func (onCommitFunc) TxnPreCommit(*Txn) error { return nil }
func (h onCommitFunc) TxnCommitted(*Txn)     { h.fn() }
func (onCommitFunc) TxnAborted(*Txn)         {}

type onAbortFunc struct{ fn func() }

func (onAbortFunc) TxnPreCommit(*Txn) error { return nil }
func (onAbortFunc) TxnCommitted(*Txn)       {}
func (h onAbortFunc) TxnAborted(*Txn)       { h.fn() }

// AddPreCommit registers a closure that runs at the start of validation;
// returning an error aborts the transaction.
func (t *Txn) AddPreCommit(fn func(*Txn) error) { t.AddHook(preCommitFunc{fn}) }

// AddOnCommit registers a closure that runs after a successful commit.
func (t *Txn) AddOnCommit(fn func()) { t.AddHook(onCommitFunc{fn}) }

// AddOnAbort registers a closure that runs after a rollback.
func (t *Txn) AddOnAbort(fn func()) { t.AddHook(onAbortFunc{fn}) }
