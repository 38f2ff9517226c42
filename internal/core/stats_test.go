package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cicada/internal/clock"
	"cicada/internal/telemetry"
)

// TestStatsConcurrentWithWorkers is the race-regression test for
// Engine.Stats / Worker.Stats / CommitsLive: all three are read continuously
// while workers run transactions. Run under -race this fails if any worker
// counter is a plain (non-atomic) word again.
func TestStatsConcurrentWithWorkers(t *testing.T) {
	const workers = 4
	e := newTestEngine(workers, nil)
	tbl := e.CreateTable("t")
	rid := mustInsert(t, e.Worker(0), tbl, make([]byte, 8))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = w.Run(func(tx *Txn) error {
					buf, err := tx.Update(tbl, rid, -1)
					if err != nil {
						if errors.Is(err, ErrNotFound) {
							return nil
						}
						return err
					}
					binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)+1)
					return nil
				})
			}
		}(e.Worker(i))
	}

	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		s := e.Stats()
		if s.Commits < e.CommitsLive() && s.Commits > 0 {
			// CommitsLive was read later; monotone counters can only grow.
			_ = s
		}
		for i := 0; i < workers; i++ {
			_ = e.Worker(i).Stats()
		}
	}
	close(stop)
	wg.Wait()

	s := e.Stats()
	if s.Commits == 0 {
		t.Fatal("no transactions committed")
	}
	if s.Commits != e.CommitsLive() {
		t.Fatalf("quiescent Commits %d != CommitsLive %d", s.Commits, e.CommitsLive())
	}
	var ccAborts uint64
	for r := AbortReason(0); r < NumAbortReasons; r++ {
		if r != AbortUser {
			ccAborts += s.AbortsByReason[r]
		}
	}
	if ccAborts != s.Aborts {
		t.Fatalf("abort reasons sum %d != Aborts %d (%+v)", ccAborts, s.Aborts, s.AbortsByReason)
	}
}

// observe makes w1's next timestamps later than w0's current transaction by
// establishing causality from w0's last allocated timestamp.
func observeAfter(from, to *Worker) {
	to.ObserveTimestamp(from.CurrentTS())
}

// TestAbortReasonSplit drives each abort cause deterministically and checks
// the taxonomy entry it lands in, plus that the legacy aggregate fields keep
// their old semantics.
func TestAbortReasonSplit(t *testing.T) {
	newPair := func(mutate func(*Options)) (*Engine, *Table, *Worker, *Worker) {
		e := newTestEngine(2, mutate)
		tbl := e.CreateTable("t")
		return e, tbl, e.Worker(0), e.Worker(1)
	}
	reasonDelta := func(e *Engine, r AbortReason, body func()) uint64 {
		before := e.Stats().AbortsByReason[r]
		body()
		return e.Stats().AbortsByReason[r] - before
	}

	t.Run("rts_early", func(t *testing.T) {
		e, tbl, w0, w1 := newPair(nil)
		rid := mustInsert(t, w0, tbl, []byte("v0"))
		n := reasonDelta(e, AbortRTSEarly, func() {
			tx0 := w0.Begin() // early timestamp
			observeAfter(w0, w1)
			// w1 reads rid at a later timestamp, raising its rts past tx0.ts.
			if err := w1.Run(func(tx *Txn) error {
				_, err := tx.Read(tbl, rid)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := tx0.Write(tbl, rid, 2); !errors.Is(err, ErrAborted) {
				t.Fatalf("Write err = %v, want ErrAborted", err)
			}
		})
		if n != 1 {
			t.Fatalf("rts_early delta = %d, want 1", n)
		}
	})

	t.Run("write_latest", func(t *testing.T) {
		e, tbl, w0, w1 := newPair(nil)
		rid := mustInsert(t, w0, tbl, []byte("v0"))
		n := reasonDelta(e, AbortWriteLatest, func() {
			tx0 := w0.Begin()
			observeAfter(w0, w1)
			// A blind write creates a later committed version without raising
			// rts, so tx0's RMW trips the write-latest rule, not the rts check.
			if err := w1.Run(func(tx *Txn) error {
				buf, err := tx.Write(tbl, rid, 2)
				if err != nil {
					return err
				}
				copy(buf, "v1")
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := tx0.Update(tbl, rid, -1); !errors.Is(err, ErrAborted) {
				t.Fatalf("Update err = %v, want ErrAborted", err)
			}
		})
		if n != 1 {
			t.Fatalf("write_latest delta = %d, want 1", n)
		}
	})

	// conflictReadThenWrite aborts tx0 in its consistency check: tx0 reads
	// rid and blind-writes another record whose rts w1 then raises.
	conflictCheck := func(t *testing.T, mutate func(*Options), reason AbortReason) {
		t.Helper()
		e, tbl, w0, w1 := newPair(mutate)
		ridA := mustInsert(t, w0, tbl, []byte("a0"))
		ridB := mustInsert(t, w0, tbl, []byte("b0"))
		n := reasonDelta(e, reason, func() {
			tx0 := w0.Begin()
			if _, err := tx0.Write(tbl, ridB, 2); err != nil {
				t.Fatal(err)
			}
			_ = ridA
			observeAfter(w0, w1)
			// w1 reads ridB later, raising its rts past tx0.ts: tx0's blind
			// write fails the version consistency check at commit.
			if err := w1.Run(func(tx *Txn) error {
				_, err := tx.Read(tbl, ridB)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if err := tx0.Commit(); !errors.Is(err, ErrAborted) {
				t.Fatalf("Commit err = %v, want ErrAborted", err)
			}
		})
		if n != 1 {
			t.Fatalf("%v delta = %d, want 1", reason, n)
		}
	}

	t.Run("precheck", func(t *testing.T) {
		conflictCheck(t, nil, AbortPreCheck)
	})

	t.Run("validation", func(t *testing.T) {
		// With the precheck disabled the same conflict is caught by the
		// mandatory final check instead.
		conflictCheck(t, func(o *Options) { o.NoPreCheck = true }, AbortValidation)
	})

	t.Run("precommit_hook_and_logger_and_user", func(t *testing.T) {
		e, tbl, w0, _ := newPair(nil)
		rid := mustInsert(t, w0, tbl, []byte("v0"))

		tx := w0.Begin()
		if _, err := tx.Update(tbl, rid, -1); err != nil {
			t.Fatal(err)
		}
		tx.AddPreCommit(func(*Txn) error { return errors.New("index conflict") })
		if err := tx.Commit(); !errors.Is(err, ErrAborted) {
			t.Fatalf("Commit err = %v", err)
		}

		e.SetLogger(failLogger{})
		tx = w0.Begin()
		if _, err := tx.Update(tbl, rid, -1); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); !errors.Is(err, ErrAborted) {
			t.Fatalf("Commit err = %v", err)
		}
		e.SetLogger(nil)

		userErr := errors.New("user says no")
		if err := w0.Run(func(*Txn) error { return userErr }); !errors.Is(err, userErr) {
			t.Fatalf("Run err = %v", err)
		}

		s := e.Stats()
		if s.AbortsByReason[AbortPreCommit] != 1 {
			t.Errorf("precommit_hook = %d, want 1", s.AbortsByReason[AbortPreCommit])
		}
		if s.AbortsByReason[AbortLogger] != 1 {
			t.Errorf("logger = %d, want 1", s.AbortsByReason[AbortLogger])
		}
		if s.AbortsByReason[AbortUser] != 1 || s.UserAborts != 1 {
			t.Errorf("user = %d / UserAborts = %d, want 1/1", s.AbortsByReason[AbortUser], s.UserAborts)
		}
		// Aggregate semantics: user aborts stay out of Aborts.
		if s.Aborts != 2 {
			t.Errorf("Aborts = %d, want 2 (precommit + logger)", s.Aborts)
		}
	})
}

type failLogger struct{}

func (failLogger) Log(int, clock.Timestamp, []LogEntry) error { return errors.New("disk gone") }

// TestPendingWaitTimeout blocks a committing writer inside the durability
// logger (its new version is PENDING at that point) and lets a reader with a
// PendingWaitLimit time out on it.
func TestPendingWaitTimeout(t *testing.T) {
	e := newTestEngine(2, func(o *Options) { o.PendingWaitLimit = 8 })
	tbl := e.CreateTable("t")
	w0, w1 := e.Worker(0), e.Worker(1)
	rid := mustInsert(t, w0, tbl, []byte("v0"))

	entered := make(chan clock.Timestamp, 1)
	release := make(chan struct{})
	e.SetLogger(blockingLogger{entered: entered, release: release})

	writerDone := make(chan error, 1)
	go func() {
		writerDone <- w1.Run(func(tx *Txn) error {
			buf, err := tx.Update(tbl, rid, -1)
			if err != nil {
				return err
			}
			copy(buf, "v1")
			return nil
		})
	}()

	writerTS := <-entered // writer's version is now installed and PENDING
	w0.ObserveTimestamp(writerTS)
	tx := w0.Begin()
	_, err := tx.Read(tbl, rid)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("Read err = %v, want ErrAborted", err)
	}
	close(release)
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if n := e.Stats().AbortsByReason[AbortPendingWait]; n != 1 {
		t.Fatalf("pending_wait = %d, want 1", n)
	}
}

type blockingLogger struct {
	entered chan clock.Timestamp
	release chan struct{}
}

func (l blockingLogger) Log(_ int, ts clock.Timestamp, _ []LogEntry) error {
	l.entered <- ts
	<-l.release
	return nil
}

// TestEngineTelemetry wires a registry into an engine, drives commits and
// aborts, and checks the scraped values: comparable engine counters, the
// abort taxonomy, phase latency histograms, and the flight recorder.
func TestEngineTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry(2)
	e := newTestEngine(2, func(o *Options) { o.Metrics = reg })
	tbl := e.CreateTable("t")
	w0, w1 := e.Worker(0), e.Worker(1)

	rid := mustInsert(t, w0, tbl, []byte("v0"))
	for i := 0; i < 10; i++ {
		if err := w1.Run(func(tx *Txn) error {
			buf, err := tx.Update(tbl, rid, -1)
			if err != nil {
				return err
			}
			buf[0] = byte(i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// One deterministic rts_early abort for the taxonomy and recorder.
	tx0 := w0.Begin()
	observeAfter(w0, w1)
	if err := w1.Run(func(tx *Txn) error {
		_, err := tx.Read(tbl, rid)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx0.Write(tbl, rid, 2); !errors.Is(err, ErrAborted) {
		t.Fatalf("Write err = %v, want ErrAborted", err)
	}

	s := e.Stats()
	vals := reg.Values()
	if got := vals["engine_commits_total_cicada"]; got != float64(s.Commits) {
		t.Errorf("engine_commits_total = %g, want %d", got, s.Commits)
	}
	if got := vals["cicada_aborts_total_rts_early"]; got < 1 {
		t.Errorf("cicada_aborts_total_rts_early = %g, want >= 1", got)
	}
	if got := vals["cicada_phase_latency_ns_execute_count"]; got != float64(s.Commits+s.Aborts) {
		// Every begun transaction observes the execute phase exactly once:
		// at Commit entry or (via the abort histogram path) never — aborts
		// during the read phase don't reach Commit, so allow >= commits.
		if got < float64(s.Commits) {
			t.Errorf("execute phase count = %g, want >= %d", got, s.Commits)
		}
	}
	if got := vals["cicada_phase_latency_ns_validate_count"]; got < float64(s.Commits-1) {
		t.Errorf("validate phase count = %g, want >= %d", got, s.Commits-1)
	}
	if got := vals["cicada_abort_latency_ns_count"]; got != float64(s.Aborts) {
		t.Errorf("abort latency count = %g, want %d", got, s.Aborts)
	}
	if _, ok := vals["cicada_clock_min_wts"]; !ok {
		t.Error("missing cicada_clock_min_wts")
	}

	rec := reg.Recorder()
	if rec == nil {
		t.Fatal("no recorder attached")
	}
	traces := rec.Dump(10)
	if len(traces) == 0 {
		t.Fatal("flight recorder empty after abort")
	}
	found := false
	for _, tr := range traces {
		if tr.Reason == "rts_early" && tr.Worker == 0 {
			found = true
			if tr.ExecuteNs == 0 {
				t.Error("trace has zero execute time")
			}
			if tr.TS == 0 || tr.StartUnixNano == 0 {
				t.Errorf("trace missing timestamps: %+v", tr)
			}
		}
	}
	if !found {
		t.Fatalf("no rts_early trace from worker 0 in %+v", traces)
	}
}

// TestTelemetryGCAndPromotion checks the GC reclaim counter and inline
// promotion counter feed through the registry.
func TestTelemetryGCAndPromotion(t *testing.T) {
	reg := telemetry.NewRegistry(1)
	e := newTestEngine(1, func(o *Options) { o.Metrics = reg })
	tbl := e.CreateTable("t")
	w := e.Worker(0)

	rid := mustInsert(t, w, tbl, make([]byte, 8))
	for i := 0; i < 50; i++ {
		if err := w.Run(func(tx *Txn) error {
			buf, err := tx.Update(tbl, rid, -1)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(buf, uint64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	advanceEpochs(t, e, 5)
	vals := reg.Values()
	if got := vals["cicada_gc_reclaimed_versions_total"]; got == 0 {
		t.Errorf("no versions reclaimed (stats: %v)", fmt.Sprint(vals))
	}
}
