package cicada_test

import (
	"testing"

	cicada "cicada"
)

// rmw4 is the transaction the public-API budget and benchmark share: four
// requests through a hash index, half of them read-modify-writes.
type rmw4 struct {
	db   *cicada.DB
	tbl  *cicada.Table
	byID *cicada.HashIndex
}

const rmw4Keys = 64

func newRMW4(tb testing.TB, workers int) *rmw4 {
	tb.Helper()
	db := cicada.Open(cicada.DefaultConfig(workers))
	r := &rmw4{db: db, tbl: db.CreateTable("t"), byID: db.CreateHashIndex("t_by_id", rmw4Keys, true)}
	w := db.Worker(0)
	var loaded cicada.Timestamp
	for k := uint64(0); k < rmw4Keys; k++ {
		if err := w.Run(func(tx *cicada.Txn) error {
			loaded = tx.Timestamp()
			rid, buf, err := tx.Insert(r.tbl, 64)
			if err != nil {
				return err
			}
			buf[0] = byte(k)
			return r.byID.Insert(tx, k, rid)
		}); err != nil {
			tb.Fatalf("load key %d: %v", k, err)
		}
	}
	// Let every worker's read-only snapshot pass the load.
	for i := 0; i < workers; i++ {
		for db.Worker(i).SnapshotTimestamp() < loaded {
			for j := 0; j < workers; j++ {
				db.Worker(j).Idle()
			}
		}
	}
	return r
}

// readWrite is the 50 % RMW body; readOnly is the same four lookups with
// every request a read.
func (r *rmw4) readWrite(tx *cicada.Txn) error { return r.exec(tx, true) }
func (r *rmw4) readOnly(tx *cicada.Txn) error  { return r.exec(tx, false) }

func (r *rmw4) exec(tx *cicada.Txn, write bool) error {
	for k := uint64(0); k < 4; k++ {
		rid, err := r.byID.Get(tx, k*7)
		if err != nil {
			return err
		}
		if write && k%2 == 1 {
			buf, err := tx.Update(r.tbl, rid, -1)
			if err != nil {
				return err
			}
			buf[1]++
		} else if _, err := tx.Read(r.tbl, rid); err != nil {
			return err
		}
	}
	return nil
}

// TestAllocBudgetPublicAPI holds the public Worker.Run* entry points to the
// zero-allocation contract (docs/PERFORMANCE.md): the transaction handle is
// the worker's, so a committed transaction allocates nothing, and neither
// does one that aborts on a conflict and retries.
func TestAllocBudgetPublicAPI(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budgets enforced in non-race builds")
	}
	budget := func(name string, fn func()) {
		t.Helper()
		for i := 0; i < 5000; i++ { // reach the reusable buffers' high-water marks
			fn()
		}
		if avg := testing.AllocsPerRun(2000, fn); avg != 0 {
			t.Errorf("%s: %.3f allocs/txn; budget is 0", name, avg)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	r := newRMW4(t, 1)
	w := r.db.Worker(0)
	budget("Run", func() { must(w.Run(r.readWrite)) })
	budget("RunLimited", func() { must(w.RunLimited(r.readWrite, 3)) })
	budget("RunReadOnly", func() { must(w.RunReadOnly(r.readOnly)) })
	budget("RunExternal", func() { must(w.RunExternal(r.readWrite)) })

	// A forced conflict: on its first attempt the transaction lets the other
	// worker read, at a later timestamp, a record it is about to update; the
	// update aborts on the raised read timestamp and the retry commits. (The
	// other worker reads rather than writes so that no version migrates
	// between the two workers' pools, which would allocate on its own.)
	r = newRMW4(t, 2)
	w0, w1 := r.db.Worker(0), r.db.Worker(1)
	attempt := 0
	var readAt cicada.Timestamp
	readLater := func(tx *cicada.Txn) error {
		readAt = tx.Timestamp()
		rid, err := r.byID.Get(tx, 7)
		if err != nil {
			return err
		}
		_, err = tx.Read(r.tbl, rid)
		return err
	}
	conflicted := func(tx *cicada.Txn) error {
		if attempt++; attempt == 1 {
			w1.ObserveTimestamp(tx.Timestamp())
			must(w1.Run(readLater))
			w0.ObserveTimestamp(readAt) // serialize the retry after the read
		}
		return r.readWrite(tx)
	}
	before := r.db.Stats().Aborts
	runs := uint64(0)
	budget("Run with one conflict retry", func() {
		attempt = 0
		runs++
		must(w0.Run(conflicted))
		w1.Idle()
	})
	if got := r.db.Stats().Aborts - before; got < runs {
		t.Errorf("forced-conflict case aborted %d times in %d runs; every run should retry at least once", got, runs)
	}
}
