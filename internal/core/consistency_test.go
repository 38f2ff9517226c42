package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cicada/internal/clock"
)

// TestExternalConsistency: after RunExternal returns, every subsequently
// begun transaction on any worker has a later timestamp.
func TestExternalConsistency(t *testing.T) {
	e := newTestEngine(3, nil)
	tbl := e.CreateTable("t")

	// Background workers keep maintenance alive so min_wts advances.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for id := 1; id < 3; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := e.Worker(id)
			for !stop.Load() {
				w.Idle()
				time.Sleep(5 * time.Microsecond)
			}
		}(id)
	}

	w := e.Worker(0)
	var commitTS clock.Timestamp
	err := w.RunExternal(func(tx *Txn) error {
		commitTS = tx.Timestamp()
		_, buf, err := tx.Insert(tbl, 1)
		if err != nil {
			return err
		}
		buf[0] = 1
		return nil
	})
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// External consistency: min_wts has passed the commit timestamp, so any
	// new transaction on any worker gets a later timestamp.
	for id := 0; id < 3; id++ {
		ts := e.clock.NewWriteTimestamp(id, e.clock.Now())
		if ts <= commitTS {
			t.Fatalf("worker %d began at %v, not after externally consistent commit %v", id, ts, commitTS)
		}
	}
}

// TestCausalObserve: after ObserveTimestamp, the worker's next transaction
// has a later timestamp than the observed one.
func TestCausalObserve(t *testing.T) {
	e := newTestEngine(2, nil)
	var remote clock.Timestamp
	for i := 0; i < 10; i++ {
		remote = e.clock.NewWriteTimestamp(1, e.clock.Now())
	}
	e.Worker(0).ObserveTimestamp(remote)
	local := e.clock.NewWriteTimestamp(0, e.clock.Now())
	if local <= remote {
		t.Fatalf("causal timestamp %v not after observed %v", local, remote)
	}
}

// TestRunExternalUserError: a user error rolls back and returns without
// waiting on min_wts.
func TestRunExternalUserError(t *testing.T) {
	e := newTestEngine(1, nil)
	tbl := e.CreateTable("t")
	w := e.Worker(0)
	sentinel := timeoutErr("boom")
	err := w.RunExternal(func(tx *Txn) error {
		if _, _, err := tx.Insert(tbl, 1); err != nil {
			return err
		}
		return sentinel
	})
	if err != error(sentinel) {
		t.Fatalf("got %v", err)
	}
}

type timeoutErr string

func (e timeoutErr) Error() string { return string(e) }
