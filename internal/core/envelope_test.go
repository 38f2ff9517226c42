package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"cicada/internal/storage"
)

// Tests for the transaction envelope (Worker.run): Run, RunLimited,
// RunExternal and RunRO share one loop, and that loop's two clock readings
// feed the outcome counters, busy/abort time and the maintenance cadence.

// conflictOnFirstAttempt returns a transaction body for w0 that
// read-modify-writes rid and is forced to abort exactly once: on its first
// attempt w1 commits a later version of rid first, and w0 then observes w1's
// timestamp so the retry is serialized after it.
func conflictOnFirstAttempt(t *testing.T, w0, w1 *Worker, tbl *Table, rid storage.RecordID) func(*Txn) error {
	attempt := 0
	blindWrite := func(tx *Txn) error {
		buf, err := tx.Write(tbl, rid, 1)
		if err != nil {
			return err
		}
		buf[0] = 7
		return nil
	}
	return func(tx *Txn) error {
		if attempt++; attempt == 1 {
			w1.ObserveTimestamp(tx.Timestamp())
			if err := w1.Run(blindWrite); err != nil {
				t.Fatalf("conflicting writer: %v", err)
			}
			w0.ObserveTimestamp(w1.CurrentTS())
		}
		buf, err := tx.Update(tbl, rid, -1)
		if err != nil {
			return err
		}
		buf[0]++
		return nil
	}
}

func TestUserAbortCountedByEveryEntryPoint(t *testing.T) {
	e := newTestEngine(1, nil)
	w := e.Worker(0)
	userErr := errors.New("user says no")
	calls := 0
	fn := func(*Txn) error { calls++; return userErr }
	for name, run := range map[string]func() error{
		"Run":         func() error { return w.Run(fn) },
		"RunLimited":  func() error { return w.RunLimited(fn, 3) },
		"RunExternal": func() error { return w.RunExternal(fn) },
		"RunRO":       func() error { return w.RunRO(fn) },
	} {
		if err := run(); err != userErr {
			t.Errorf("%s returned %v; want fn's error unchanged", name, err)
		}
	}
	s := e.Stats()
	if calls != 4 || s.UserAborts != 4 || s.AbortsByReason[AbortUser] != 4 {
		t.Errorf("4 user errors in %d calls: UserAborts = %d, AbortsByReason[user] = %d; want 4 of each",
			calls, s.UserAborts, s.AbortsByReason[AbortUser])
	}
	if s.Aborts != 0 || s.Commits != 0 {
		t.Errorf("user rollbacks leaked into Aborts = %d / Commits = %d", s.Aborts, s.Commits)
	}
}

// TestRunRONeverRetries: a read-only transaction runs fn once and returns its
// error as is, even the ErrAborted that cicadaeng's single-version index mode
// uses as a retry signal; that signal is neither a conflict abort nor a user
// rollback.
func TestRunRONeverRetries(t *testing.T) {
	e := newTestEngine(1, nil)
	calls := 0
	err := e.Worker(0).RunRO(func(*Txn) error { calls++; return ErrAborted })
	if err != ErrAborted || calls != 1 {
		t.Fatalf("RunRO = %v after %d calls; want ErrAborted after 1", err, calls)
	}
	if s := e.Stats(); s.Aborts != 0 || s.UserAborts != 0 {
		t.Fatalf("fn's ErrAborted counted: Aborts = %d, UserAborts = %d", s.Aborts, s.UserAborts)
	}
}

// TestBusyAndAbortTimeAfterConflict: with backoff disabled, abort time is the
// duration of the attempts that aborted, so it is positive after a conflict
// and never exceeds busy time, which covers every attempt.
func TestBusyAndAbortTimeAfterConflict(t *testing.T) {
	e := newTestEngine(2, func(o *Options) { o.FixedMaxBackoff = 0 })
	tbl := e.CreateTable("t")
	w0, w1 := e.Worker(0), e.Worker(1)
	rid := mustInsert(t, w0, tbl, []byte{0})
	for name, run := range map[string]func(func(*Txn) error) error{
		"Run":        w0.Run,
		"RunLimited": func(fn func(*Txn) error) error { return w0.RunLimited(fn, 2) },
	} {
		before := w0.Stats()
		if err := run(conflictOnFirstAttempt(t, w0, w1, tbl, rid)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := w0.Stats()
		if n := after.Aborts - before.Aborts; n != 1 {
			t.Errorf("%s: %d aborts; want the 1 forced conflict", name, n)
		}
		abort, busy := after.AbortTime-before.AbortTime, after.BusyTime-before.BusyTime
		if abort <= 0 || busy < abort {
			t.Errorf("%s: AbortTime %v, BusyTime %v; want BusyTime ≥ AbortTime > 0", name, abort, busy)
		}
	}
}

// TestLoneWorkerMaintainsFromTransactions: a single worker that only ever
// calls Run still advances min_rts and reclaims versions, because the
// envelope's end reading drives the GCInterval check.
func TestLoneWorkerMaintainsFromTransactions(t *testing.T) {
	e := newTestEngine(1, func(o *Options) { o.GCInterval = 10 * time.Microsecond })
	tbl := e.CreateTable("t")
	w := e.Worker(0)
	rid := mustInsert(t, w, tbl, []byte{0})
	startRTS := e.Clock().MinRTS()
	update := func(tx *Txn) error {
		buf, err := tx.Update(tbl, rid, -1)
		if err != nil {
			return err
		}
		buf[0]++
		return nil
	}
	deadline := time.Now().Add(10 * time.Second)
	for w.stats.gcReclaimed.Load() == 0 || e.Clock().MinRTS() <= startRTS {
		if time.Now().After(deadline) {
			t.Fatalf("min_rts %v (started at %v), %d versions reclaimed after 10 s of transactions",
				e.Clock().MinRTS(), startRTS, w.stats.gcReclaimed.Load())
		}
		if err := w.Run(update); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIdlePeerLetsRunExternalReturn: a worker with no transactions that keeps
// calling Idle still advances its write timestamp, so min_wts passes its
// peer's commit and RunExternal returns.
func TestIdlePeerLetsRunExternalReturn(t *testing.T) {
	e := newTestEngine(2, nil)
	tbl := e.CreateTable("t")
	w0, w1 := e.Worker(0), e.Worker(1)
	rid := mustInsert(t, w0, tbl, []byte{0})

	stop := make(chan struct{})
	var idler sync.WaitGroup
	idler.Add(1)
	go func() {
		defer idler.Done()
		for {
			select {
			case <-stop:
				return
			default:
				w1.Idle()
			}
		}
	}()
	defer func() { close(stop); idler.Wait() }()

	done := make(chan error, 1)
	go func() {
		done <- w0.RunExternal(func(tx *Txn) error {
			_, err := tx.Update(tbl, rid, -1)
			return err
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunExternal did not return with an idling peer")
	}
}
