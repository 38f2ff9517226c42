package core

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"cicada/internal/clock"
	"cicada/internal/storage"
)

func newTestEngine(workers int, mutate func(*Options)) *Engine {
	opts := DefaultOptions(workers)
	if mutate != nil {
		mutate(&opts)
	}
	return NewEngine(opts)
}

// advanceEpochs drives maintenance on every worker until n quiescence rounds
// complete. Safe only when no worker goroutines are running.
func advanceEpochs(t *testing.T, e *Engine, n uint64) {
	t.Helper()
	target := e.Epoch() + n
	deadline := time.Now().Add(5 * time.Second)
	for e.Epoch() < target {
		if time.Now().After(deadline) {
			t.Fatalf("epoch stuck at %d (target %d)", e.Epoch(), target)
		}
		for i := 0; i < e.Options().Workers; i++ {
			e.Worker(i).Idle()
		}
		time.Sleep(20 * time.Microsecond)
	}
}

func mustInsert(t *testing.T, w *Worker, tbl *Table, data []byte) storage.RecordID {
	t.Helper()
	var rid storage.RecordID
	err := w.Run(func(tx *Txn) error {
		r, buf, err := tx.Insert(tbl, len(data))
		if err != nil {
			return err
		}
		copy(buf, data)
		rid = r
		return nil
	})
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	return rid
}

func mustRead(t *testing.T, w *Worker, tbl *Table, rid storage.RecordID) []byte {
	t.Helper()
	var out []byte
	err := w.Run(func(tx *Txn) error {
		d, err := tx.Read(tbl, rid)
		if err != nil {
			return err
		}
		out = append([]byte(nil), d...)
		return nil
	})
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return out
}

func TestBasicCRUD(t *testing.T) {
	e := newTestEngine(1, nil)
	tbl := e.CreateTable("t")
	w := e.Worker(0)

	rid := mustInsert(t, w, tbl, []byte("hello"))
	if got := mustRead(t, w, tbl, rid); string(got) != "hello" {
		t.Fatalf("read %q", got)
	}

	if err := w.Run(func(tx *Txn) error {
		buf, err := tx.Update(tbl, rid, -1)
		if err != nil {
			return err
		}
		copy(buf, "HELLO")
		return nil
	}); err != nil {
		t.Fatalf("update: %v", err)
	}
	if got := mustRead(t, w, tbl, rid); string(got) != "HELLO" {
		t.Fatalf("after update: %q", got)
	}

	if err := w.Run(func(tx *Txn) error { return tx.Delete(tbl, rid) }); err != nil {
		t.Fatalf("delete: %v", err)
	}
	err := w.Run(func(tx *Txn) error {
		_, err := tx.Read(tbl, rid)
		return err
	})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after delete: %v", err)
	}
}

func TestUpdateResize(t *testing.T) {
	e := newTestEngine(1, nil)
	tbl := e.CreateTable("t")
	w := e.Worker(0)
	rid := mustInsert(t, w, tbl, []byte("abc"))
	if err := w.Run(func(tx *Txn) error {
		buf, err := tx.Update(tbl, rid, 5)
		if err != nil {
			return err
		}
		if len(buf) != 5 || string(buf[:3]) != "abc" || buf[3] != 0 || buf[4] != 0 {
			t.Errorf("resized buffer %q", buf)
		}
		copy(buf, "xyzzy")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, w, tbl, rid); string(got) != "xyzzy" {
		t.Fatalf("after resize: %q", got)
	}
}

func TestReadOwnWrites(t *testing.T) {
	e := newTestEngine(1, nil)
	tbl := e.CreateTable("t")
	w := e.Worker(0)
	rid := mustInsert(t, w, tbl, []byte("v0"))

	if err := w.Run(func(tx *Txn) error {
		// Read then update then read again: must see own write.
		d, err := tx.Read(tbl, rid)
		if err != nil {
			return err
		}
		if string(d) != "v0" {
			t.Errorf("initial read %q", d)
		}
		buf, err := tx.Update(tbl, rid, -1)
		if err != nil {
			return err
		}
		copy(buf, "v1")
		d2, err := tx.Read(tbl, rid)
		if err != nil {
			return err
		}
		if string(d2) != "v1" {
			t.Errorf("read-own-write %q", d2)
		}
		// Insert then read.
		r2, buf2, err := tx.Insert(tbl, 2)
		if err != nil {
			return err
		}
		copy(buf2, "n0")
		d3, err := tx.Read(tbl, r2)
		if err != nil {
			return err
		}
		if string(d3) != "n0" {
			t.Errorf("read-own-insert %q", d3)
		}
		// Delete then read.
		if err := tx.Delete(tbl, rid); err != nil {
			return err
		}
		if _, err := tx.Read(tbl, rid); !errors.Is(err, ErrNotFound) {
			t.Errorf("read-own-delete: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertThenDeleteSameTxn(t *testing.T) {
	e := newTestEngine(1, nil)
	tbl := e.CreateTable("t")
	w := e.Worker(0)
	if err := w.Run(func(tx *Txn) error {
		rid, buf, err := tx.Insert(tbl, 3)
		if err != nil {
			return err
		}
		copy(buf, "xxx")
		if err := tx.Delete(tbl, rid); err != nil {
			return err
		}
		if _, err := tx.Read(tbl, rid); !errors.Is(err, ErrNotFound) {
			t.Errorf("read after insert+delete: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAbortRollsBack(t *testing.T) {
	e := newTestEngine(1, nil)
	tbl := e.CreateTable("t")
	w := e.Worker(0)
	rid := mustInsert(t, w, tbl, []byte("keep"))

	sentinel := errors.New("user rollback")
	err := w.Run(func(tx *Txn) error {
		buf, err := tx.Update(tbl, rid, -1)
		if err != nil {
			return err
		}
		copy(buf, "lost")
		if _, _, err := tx.Insert(tbl, 4); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
	if got := mustRead(t, w, tbl, rid); string(got) != "keep" {
		t.Fatalf("rollback leaked: %q", got)
	}
	if s := w.Stats(); s.UserAborts != 1 {
		t.Fatalf("UserAborts = %d", s.UserAborts)
	}
}

// TestMultiVersionReadersSeeSnapshot: a transaction with an earlier
// timestamp reads the pre-update version even after a later transaction
// commits an update — the core MVCC benefit over 1VCC.
func TestMultiVersionReadersSeeSnapshot(t *testing.T) {
	e := newTestEngine(2, nil)
	tbl := e.CreateTable("t")
	w0, w1 := e.Worker(0), e.Worker(1)
	rid := mustInsert(t, w0, tbl, []byte("old"))

	reader := w0.Begin() // earlier timestamp
	writerDone := make(chan error, 1)
	go func() {
		writerDone <- w1.Run(func(tx *Txn) error {
			buf, err := tx.Update(tbl, rid, -1)
			if err != nil {
				return err
			}
			copy(buf, "new")
			return nil
		})
	}()
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	d, err := reader.Read(tbl, rid)
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	if string(d) != "old" {
		t.Fatalf("reader saw %q, want old snapshot", d)
	}
	if err := reader.Commit(); err != nil {
		t.Fatalf("reader commit: %v", err)
	}
}

// TestWriteBelowReadAborts: a writer with an earlier timestamp must abort if
// the version it would supersede was already read at a later timestamp.
func TestWriteBelowReadAborts(t *testing.T) {
	e := newTestEngine(2, nil)
	tbl := e.CreateTable("t")
	w0, w1 := e.Worker(0), e.Worker(1)
	rid := mustInsert(t, w0, tbl, []byte("v"))

	writer := w0.Begin() // earlier timestamp
	// Later-timestamp reader commits, raising the version's rts.
	if err := w1.Run(func(tx *Txn) error {
		_, err := tx.Read(tbl, rid)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	_, err := writer.Update(tbl, rid, -1)
	if !errors.Is(err, ErrAborted) {
		writer.Abort()
		t.Fatalf("early abort missing: %v", err)
	}
}

// TestAbsentReadBlocksEarlierWriter covers the absent-read/blind-write race:
// a later-timestamp transaction that observed the record as absent must
// prevent an earlier-timestamp writer from committing below it.
func TestAbsentReadBlocksEarlierWriter(t *testing.T) {
	e := newTestEngine(2, nil)
	tbl := e.CreateTable("t")
	first := tbl.Storage().Reserve(1) // head exists, no versions

	writer := e.Worker(0).Begin() // earlier timestamp
	if err := e.Worker(1).Run(func(tx *Txn) error {
		_, err := tx.Read(tbl, first)
		if !errors.Is(err, ErrNotFound) {
			t.Errorf("absent read: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	buf, err := writer.Write(tbl, first, 1)
	if err == nil {
		buf[0] = 'x'
		err = writer.Commit()
	} else {
		writer.Abort()
	}
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("blind write below absent read committed: %v", err)
	}
}

func TestConcurrentRMWExactlyOneWins(t *testing.T) {
	e := newTestEngine(2, nil)
	tbl := e.CreateTable("t")
	rid := mustInsert(t, e.Worker(0), tbl, []byte{0})

	t0 := e.Worker(0).Begin()
	t1 := e.Worker(1).Begin()
	var errs [2]error
	stage := func(tx *Txn) error {
		buf, err := tx.Update(tbl, rid, -1)
		if err != nil {
			return err
		}
		buf[0]++
		return nil
	}
	errs[0] = stage(t0)
	errs[1] = stage(t1)
	done := make(chan struct{})
	go func() {
		if errs[1] == nil {
			errs[1] = t1.Commit()
		} else {
			t1.Abort()
		}
		close(done)
	}()
	if errs[0] == nil {
		errs[0] = t0.Commit()
	} else {
		t0.Abort()
	}
	<-done
	aborted := 0
	for _, err := range errs {
		if errors.Is(err, ErrAborted) {
			aborted++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if aborted != 1 {
		t.Fatalf("aborted = %d, want exactly 1", aborted)
	}
	if got := mustRead(t, e.Worker(0), tbl, rid); got[0] != 1 {
		t.Fatalf("counter = %d, want 1", got[0])
	}
}

func TestReadOnlySnapshot(t *testing.T) {
	e := newTestEngine(2, nil)
	tbl := e.CreateTable("t")
	w0, w1 := e.Worker(0), e.Worker(1)
	rid := mustInsert(t, w0, tbl, []byte("s0"))
	advanceEpochs(t, e, 3) // let min_wts advance past the insert

	ro := w1.BeginRO()
	if !ro.ReadOnly() {
		t.Fatal("not read-only")
	}
	d, err := ro.Read(tbl, rid)
	if err != nil {
		t.Fatalf("ro read: %v", err)
	}
	if string(d) != "s0" {
		t.Fatalf("ro read %q", d)
	}
	if _, err := ro.Write(tbl, rid, 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write in RO: %v", err)
	}
	if ro.Timestamp() >= e.Clock().MinWTS() {
		t.Fatalf("RO ts %v not below min_wts %v", ro.Timestamp(), e.Clock().MinWTS())
	}
	if err := ro.Commit(); err != nil {
		t.Fatalf("ro commit: %v", err)
	}
}

func TestGCPrunesVersionChains(t *testing.T) {
	e := newTestEngine(1, nil)
	tbl := e.CreateTable("t")
	w := e.Worker(0)
	rid := mustInsert(t, w, tbl, []byte{0})
	for i := 0; i < 200; i++ {
		if err := w.Run(func(tx *Txn) error {
			buf, err := tx.Update(tbl, rid, -1)
			if err != nil {
				return err
			}
			buf[0] = byte(i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			advanceEpochs(t, e, 1)
		}
	}
	advanceEpochs(t, e, 4)
	// One more committed write triggers collection of everything earlier.
	if err := w.Run(func(tx *Txn) error {
		buf, err := tx.Update(tbl, rid, -1)
		if err != nil {
			return err
		}
		buf[0] = 255
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	advanceEpochs(t, e, 4)
	w.collectGarbage()
	n := 0
	for v := tbl.Storage().Head(rid).Latest(); v != nil; v = v.Next() {
		n++
	}
	if n > 3 {
		t.Fatalf("version chain length %d after GC", n)
	}
	if overhead := e.SpaceOverhead(); overhead > 3 {
		t.Fatalf("space overhead %.2f", overhead)
	}
}

func TestDeleteReclaimsRecordID(t *testing.T) {
	e := newTestEngine(1, nil)
	tbl := e.CreateTable("t")
	w := e.Worker(0)
	rid := mustInsert(t, w, tbl, []byte("gone"))
	if err := w.Run(func(tx *Txn) error { return tx.Delete(tbl, rid) }); err != nil {
		t.Fatal(err)
	}
	// Drive maintenance until the tombstone is collected and the rid freed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		advanceEpochs(t, e, 2)
		w.collectGarbage()
		w.processLimbo()
		if h := tbl.Storage().Head(rid); h.Latest() == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tombstone never collected")
		}
	}
	// The record ID free itself is limbo-delayed; let it drain.
	advanceEpochs(t, e, limboDelayEpochs+2)
	w.processLimbo()
	again := mustInsert(t, w, tbl, []byte("new"))
	if again != rid {
		t.Fatalf("rid %d not reused (got %d)", rid, again)
	}
	if got := mustRead(t, w, tbl, again); string(got) != "new" {
		t.Fatalf("reused rid data %q", got)
	}
}

func TestInlinePromotion(t *testing.T) {
	e := newTestEngine(1, nil)
	tbl := e.CreateTable("t")
	w := e.Worker(0)
	rid := mustInsert(t, w, tbl, []byte("cold")) // inline slot taken
	// Update: inline occupied, so the new latest version is non-inline.
	if err := w.Run(func(tx *Txn) error {
		buf, err := tx.Update(tbl, rid, -1)
		if err != nil {
			return err
		}
		copy(buf, "COLD")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	h := tbl.Storage().Head(rid)
	if h.Latest().Inline() {
		t.Fatal("latest unexpectedly inline")
	}
	// Age the record past min_rts and let GC release the old inline slot.
	deadline := time.Now().Add(5 * time.Second)
	for h.InlineVersion().Status() != storage.StatusUnused {
		advanceEpochs(t, e, 2)
		w.collectGarbage()
		w.processLimbo()
		if time.Now().After(deadline) {
			t.Fatal("inline slot never released")
		}
	}
	// A read should now promote the non-inline latest into the inline slot.
	deadline = time.Now().Add(5 * time.Second)
	for !h.Latest().Inline() {
		if got := mustRead(t, w, tbl, rid); string(got) != "COLD" {
			t.Fatalf("read %q", got)
		}
		advanceEpochs(t, e, 2)
		if time.Now().After(deadline) {
			t.Fatal("promotion never happened")
		}
	}
	if got := mustRead(t, w, tbl, rid); string(got) != "COLD" {
		t.Fatalf("post-promotion read %q", got)
	}
}

// TestWriteAfterPromotingReadIsLogged is the regression test for the lost
// durable updates of docs/DURABILITY.md ("Writes after a promoting read"): a
// read that triggers an inlining promotion marks its access as not worth
// logging, and a write, update or delete of the same record later in the
// transaction used to inherit the mark and commit without a redo record.
func TestWriteAfterPromotingReadIsLogged(t *testing.T) {
	for _, op := range []string{"update", "write", "delete"} {
		t.Run(op, func(t *testing.T) {
			e := newTestEngine(1, nil)
			tbl := e.CreateTable("t")
			w := e.Worker(0)
			// The insert takes the inline slot, so the update's version, the
			// latest, is not inline: a candidate for promotion once cold.
			rid := mustInsert(t, w, tbl, []byte("cold"))
			if err := w.Run(func(tx *Txn) error {
				_, err := tx.Update(tbl, rid, -1)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			var logged []LogEntry
			e.SetLogger(loggerFunc(func(_ int, _ clock.Timestamp, entries []LogEntry) error {
				for _, en := range entries {
					en.Data = append([]byte(nil), en.Data...)
					logged = append(logged, en)
				}
				return nil
			}))
			// Age the record below min_rts and let GC release the inline
			// slot; the next read promotes.
			promoted := false
			deadline := time.Now().Add(5 * time.Second)
			for !promoted {
				if time.Now().After(deadline) {
					t.Fatal("no read ever promoted")
				}
				advanceEpochs(t, e, 2)
				w.collectGarbage()
				w.processLimbo()
				before := w.stats.promotions.Load()
				if err := w.Run(func(tx *Txn) error {
					if _, err := tx.Read(tbl, rid); err != nil {
						return err
					}
					if promoted = w.stats.promotions.Load() > before; !promoted {
						return nil
					}
					switch op {
					case "update":
						buf, err := tx.Update(tbl, rid, -1)
						copy(buf, "WARM")
						return err
					case "write":
						buf, err := tx.Write(tbl, rid, 4)
						copy(buf, "WARM")
						return err
					}
					return tx.Delete(tbl, rid)
				}); err != nil {
					t.Fatal(err)
				}
				if !promoted && len(logged) != 0 {
					t.Fatalf("a read-only or promotion-only transaction logged %+v", logged)
				}
			}
			if len(logged) != 1 || logged[0].Record != rid || logged[0].Deleted != (op == "delete") ||
				(op != "delete" && string(logged[0].Data) != "WARM") {
				t.Fatalf("%s after a promoting read logged %+v", op, logged)
			}
		})
	}
}

// TestStale: a transaction is stale once a record it read has a newer
// committed version below its timestamp, which is what its commit would
// find, and not before.
func TestStale(t *testing.T) {
	e := newTestEngine(2, nil)
	tbl := e.CreateTable("t")
	w0, w1 := e.Worker(0), e.Worker(1)
	rid := mustInsert(t, w0, tbl, []byte("v0"))

	writer := w0.Begin() // the earlier timestamp
	w1.ObserveTimestamp(writer.Timestamp())
	reader := w1.Begin()
	if _, err := reader.Read(tbl, rid); err != nil {
		t.Fatal(err)
	}
	if reader.Stale() {
		t.Fatal("stale before anything changed")
	}
	buf, err := writer.Update(tbl, rid, -1)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, "v1")
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	if !reader.Stale() {
		t.Fatal("not stale after an earlier writer replaced what was read")
	}
	if err := reader.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("stale reader committed: %v", err)
	}
}

func TestInliningDisabled(t *testing.T) {
	e := newTestEngine(1, func(o *Options) { o.Inlining = false })
	tbl := e.CreateTable("t")
	w := e.Worker(0)
	rid := mustInsert(t, w, tbl, []byte("x"))
	if tbl.Storage().Head(rid).Latest().Inline() {
		t.Fatal("inline version used with inlining disabled")
	}
}

func TestLoggerReceivesWriteSet(t *testing.T) {
	e := newTestEngine(1, nil)
	tbl := e.CreateTable("t")
	var got []LogEntry
	e.SetLogger(loggerFunc(func(worker int, ts clock.Timestamp, entries []LogEntry) error {
		for _, en := range entries {
			c := en
			c.Data = append([]byte(nil), en.Data...)
			got = append(got, c)
		}
		return nil
	}))
	w := e.Worker(0)
	rid := mustInsert(t, w, tbl, []byte("logme"))
	if len(got) != 1 || string(got[0].Data) != "logme" || got[0].Record != rid {
		t.Fatalf("log entries %+v", got)
	}
	if err := w.Run(func(tx *Txn) error { return tx.Delete(tbl, rid) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[1].Deleted {
		t.Fatalf("delete log entries %+v", got)
	}
}

func TestFailingLoggerAbortsTxn(t *testing.T) {
	e := newTestEngine(1, nil)
	tbl := e.CreateTable("t")
	boom := errors.New("disk full")
	e.SetLogger(loggerFunc(func(worker int, ts clock.Timestamp, entries []LogEntry) error {
		return boom
	}))
	w := e.Worker(0)
	tx := w.Begin()
	_, buf, err := tx.Insert(tbl, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 1
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("commit with failing logger: %v", err)
	}
}

func TestClosedTxnRejected(t *testing.T) {
	e := newTestEngine(1, nil)
	tbl := e.CreateTable("t")
	w := e.Worker(0)
	tx := w.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(tbl, 0); !errors.Is(err, ErrTxnClosed) {
		t.Fatalf("read on closed txn: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnClosed) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestTableRegistry(t *testing.T) {
	e := newTestEngine(1, nil)
	a := e.CreateTable("a")
	b := e.CreateTable("b")
	if e.TableByName("a") != a || e.TableByID(b.ID) != b {
		t.Fatal("registry lookup failed")
	}
	if len(e.Tables()) != 2 {
		t.Fatalf("tables = %d", len(e.Tables()))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate table did not panic")
		}
	}()
	e.CreateTable("a")
}

func TestStatsAccumulate(t *testing.T) {
	e := newTestEngine(1, nil)
	tbl := e.CreateTable("t")
	w := e.Worker(0)
	mustInsert(t, w, tbl, []byte("x"))
	s := e.Stats()
	if s.Commits != 1 {
		t.Fatalf("commits = %d", s.Commits)
	}
	if r := s.AbortRate(); r != 0 {
		t.Fatalf("abort rate = %f", r)
	}
}

func TestWriteAfterReadUpgrades(t *testing.T) {
	e := newTestEngine(1, nil)
	tbl := e.CreateTable("t")
	w := e.Worker(0)
	rid := mustInsert(t, w, tbl, []byte("ab"))
	if err := w.Run(func(tx *Txn) error {
		if _, err := tx.Read(tbl, rid); err != nil {
			return err
		}
		buf, err := tx.Write(tbl, rid, 2)
		if err != nil {
			return err
		}
		copy(buf, "cd")
		d, err := tx.Read(tbl, rid)
		if err != nil {
			return err
		}
		if string(d) != "cd" {
			t.Errorf("own write after read: %q", d)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, w, tbl, rid); string(got) != "cd" {
		t.Fatalf("final %q", got)
	}
}

func TestReadDirect(t *testing.T) {
	e := newTestEngine(1, nil)
	tbl := e.CreateTable("t")
	w := e.Worker(0)
	rid := mustInsert(t, w, tbl, []byte("direct"))
	advanceEpochs(t, e, 3)
	d, ok := w.ReadDirect(tbl, rid)
	if !ok || string(d) != "direct" {
		t.Fatalf("direct read %q %v", d, ok)
	}
	if _, ok := w.ReadDirect(tbl, rid+100); ok {
		t.Fatal("direct read of absent record succeeded")
	}
}

// loggerFunc adapts a function to the Logger interface.
type loggerFunc func(worker int, ts clock.Timestamp, entries []LogEntry) error

func (f loggerFunc) Log(worker int, ts clock.Timestamp, entries []LogEntry) error {
	return f(worker, ts, entries)
}

func u64(b []byte) uint64       { return binary.LittleEndian.Uint64(b) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }
