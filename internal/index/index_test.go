package index

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"cicada/internal/core"
	"cicada/internal/storage"
)

func newEngine(workers int) *core.Engine {
	return core.NewEngine(core.DefaultOptions(workers))
}

func run(t *testing.T, w *core.Worker, fn func(tx *core.Txn) error) {
	t.Helper()
	if err := w.Run(fn); err != nil {
		t.Fatal(err)
	}
}

// observeAll orders w's next transaction after everything the engine's
// workers have committed. Worker clocks are only loosely synchronized
// (§3.1), so without it a check that follows concurrent writers may run at a
// timestamp below some of their commits and see a correct, older snapshot.
func observeAll(e *core.Engine, w *core.Worker) {
	for id := 0; id < e.Options().Workers; id++ {
		w.ObserveTimestamp(e.Worker(id).CurrentTS())
	}
}

func TestMVHashBasic(t *testing.T) {
	e := newEngine(1)
	h := NewMVHash(e, "idx", 1024, false)
	w := e.Worker(0)

	run(t, w, func(tx *core.Txn) error {
		if _, err := h.Get(tx, 42); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("empty get: %v", err)
		}
		return h.Insert(tx, 42, 7)
	})
	run(t, w, func(tx *core.Txn) error {
		rid, err := h.Get(tx, 42)
		if err != nil || rid != 7 {
			t.Errorf("get: %d %v", rid, err)
		}
		return nil
	})
	run(t, w, func(tx *core.Txn) error { return h.Delete(tx, 42, 7) })
	run(t, w, func(tx *core.Txn) error {
		if _, err := h.Get(tx, 42); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("get after delete: %v", err)
		}
		return nil
	})
}

func TestMVHashOverflowChains(t *testing.T) {
	e := newEngine(1)
	h := NewMVHash(e, "idx", 16, false) // tiny: force overflow buckets
	w := e.Worker(0)
	const n = 500
	for i := 0; i < n; i++ {
		i := i
		run(t, w, func(tx *core.Txn) error { return h.Insert(tx, uint64(i), storage.RecordID(i)) })
	}
	run(t, w, func(tx *core.Txn) error {
		for i := 0; i < n; i++ {
			rid, err := h.Get(tx, uint64(i))
			if err != nil || rid != storage.RecordID(i) {
				t.Fatalf("key %d: %d %v", i, rid, err)
			}
		}
		return nil
	})
	// Delete every other key; the rest must remain reachable.
	for i := 0; i < n; i += 2 {
		i := i
		run(t, w, func(tx *core.Txn) error { return h.Delete(tx, uint64(i), storage.RecordID(i)) })
	}
	run(t, w, func(tx *core.Txn) error {
		for i := 0; i < n; i++ {
			_, err := h.Get(tx, uint64(i))
			if i%2 == 0 && !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("deleted key %d still present: %v", i, err)
			}
			if i%2 == 1 && err != nil {
				t.Fatalf("kept key %d lost: %v", i, err)
			}
		}
		return nil
	})
}

func TestMVHashNonUniqueAndGetAll(t *testing.T) {
	e := newEngine(1)
	h := NewMVHash(e, "idx", 64, false)
	w := e.Worker(0)
	run(t, w, func(tx *core.Txn) error {
		for r := 0; r < 5; r++ {
			if err := h.Insert(tx, 9, storage.RecordID(100+r)); err != nil {
				return err
			}
		}
		return nil
	})
	run(t, w, func(tx *core.Txn) error {
		all, err := h.GetAll(tx, 9, nil)
		if err != nil || len(all) != 5 {
			t.Errorf("getall: %v %v", all, err)
		}
		return nil
	})
}

func TestMVHashUnique(t *testing.T) {
	e := newEngine(1)
	h := NewMVHash(e, "idx", 64, true)
	w := e.Worker(0)
	run(t, w, func(tx *core.Txn) error { return h.Insert(tx, 1, 10) })
	err := w.Run(func(tx *core.Txn) error { return h.Insert(tx, 1, 11) })
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate insert: %v", err)
	}
}

func TestMVHashPhantom(t *testing.T) {
	e := newEngine(2)
	h := NewMVHash(e, "idx", 64, false)
	// Reader observes key 5 absent; a concurrent later insert must conflict
	// with the reader's bucket read, not slip past it.
	reader := e.Worker(0).Begin()
	if _, err := h.Get(reader, 5); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("get: %v", err)
	}
	// Writer with a later timestamp inserts and commits first.
	if err := e.Worker(1).Run(func(tx *core.Txn) error { return h.Insert(tx, 5, 50) }); err != nil {
		t.Fatal(err)
	}
	// Reader's commit is still fine: the insert has a later timestamp, so
	// the reader's absent view at its own timestamp remains valid.
	if err := reader.Commit(); err != nil {
		t.Fatalf("reader commit: %v", err)
	}
	// Now the reverse: writer with an EARLIER timestamp than a committed
	// absent observation must abort.
	writer := e.Worker(0).Begin()
	if err := e.Worker(1).Run(func(tx *core.Txn) error {
		_, err := h.Get(tx, 6)
		if !errors.Is(err, core.ErrNotFound) {
			t.Errorf("get 6: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	err := h.Insert(writer, 6, 60)
	if err == nil {
		err = writer.Commit()
	} else {
		writer.Abort()
	}
	if !errors.Is(err, core.ErrAborted) {
		t.Fatalf("phantom insert below absent read: %v", err)
	}
}

func TestMVBTreeBasic(t *testing.T) {
	e := newEngine(1)
	bt := NewMVBTree(e, "bt", false)
	w := e.Worker(0)
	run(t, w, func(tx *core.Txn) error {
		if _, err := bt.Get(tx, 1); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("empty get: %v", err)
		}
		return bt.Insert(tx, 1, 10)
	})
	run(t, w, func(tx *core.Txn) error {
		rid, err := bt.Get(tx, 1)
		if err != nil || rid != 10 {
			t.Errorf("get: %d %v", rid, err)
		}
		return nil
	})
	run(t, w, func(tx *core.Txn) error { return bt.Delete(tx, 1, 10) })
	run(t, w, func(tx *core.Txn) error {
		if _, err := bt.Get(tx, 1); !errors.Is(err, core.ErrNotFound) {
			t.Errorf("get after delete: %v", err)
		}
		return nil
	})
}

func TestMVBTreeSplitsAndOrder(t *testing.T) {
	e := newEngine(1)
	bt := NewMVBTree(e, "bt", false)
	w := e.Worker(0)
	const n = 3000
	keys := rand.New(rand.NewSource(7)).Perm(n)
	for _, k := range keys {
		k := k
		run(t, w, func(tx *core.Txn) error { return bt.Insert(tx, uint64(k), storage.RecordID(k*2)) })
	}
	run(t, w, func(tx *core.Txn) error {
		var got []uint64
		err := bt.Scan(tx, 0, ^uint64(0), -1, func(k uint64, r storage.RecordID) bool {
			if r != storage.RecordID(k*2) {
				t.Fatalf("key %d rid %d", k, r)
			}
			got = append(got, k)
			return true
		})
		if err != nil {
			return err
		}
		if len(got) != n {
			t.Fatalf("scan found %d of %d", len(got), n)
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatal("scan out of order")
		}
		return nil
	})
	// Point lookups for every key.
	run(t, w, func(tx *core.Txn) error {
		for k := 0; k < n; k += 37 {
			rid, err := bt.Get(tx, uint64(k))
			if err != nil || rid != storage.RecordID(k*2) {
				t.Fatalf("get %d: %d %v", k, rid, err)
			}
		}
		return nil
	})
}

func TestMVBTreeRangeScan(t *testing.T) {
	e := newEngine(1)
	bt := NewMVBTree(e, "bt", false)
	w := e.Worker(0)
	for k := 0; k < 200; k += 2 { // even keys only
		k := k
		run(t, w, func(tx *core.Txn) error { return bt.Insert(tx, uint64(k), storage.RecordID(k)) })
	}
	run(t, w, func(tx *core.Txn) error {
		var got []uint64
		if err := bt.Scan(tx, 51, 99, -1, func(k uint64, r storage.RecordID) bool {
			got = append(got, k)
			return true
		}); err != nil {
			return err
		}
		want := []uint64{52, 54, 56, 58, 60, 62, 64, 66, 68, 70, 72, 74, 76, 78, 80, 82, 84, 86, 88, 90, 92, 94, 96, 98}
		if len(got) != len(want) {
			t.Fatalf("scan got %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("scan got %v", got)
			}
		}
		// Limit.
		cnt := 0
		if err := bt.Scan(tx, 0, 1000, 5, func(k uint64, r storage.RecordID) bool { cnt++; return true }); err != nil {
			return err
		}
		if cnt != 5 {
			t.Fatalf("limit scan %d", cnt)
		}
		return nil
	})
}

func TestMVBTreeDuplicateKeys(t *testing.T) {
	e := newEngine(1)
	bt := NewMVBTree(e, "bt", false)
	w := e.Worker(0)
	run(t, w, func(tx *core.Txn) error {
		for r := 0; r < 30; r++ {
			if err := bt.Insert(tx, 7, storage.RecordID(r)); err != nil {
				return err
			}
		}
		return nil
	})
	err := w.Run(func(tx *core.Txn) error { return bt.Insert(tx, 7, 3) })
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("exact duplicate: %v", err)
	}
	run(t, w, func(tx *core.Txn) error {
		var rids []storage.RecordID
		if err := bt.Scan(tx, 7, 7, -1, func(k uint64, r storage.RecordID) bool {
			rids = append(rids, r)
			return true
		}); err != nil {
			return err
		}
		if len(rids) != 30 {
			t.Fatalf("dup scan found %d", len(rids))
		}
		for i, r := range rids {
			if r != storage.RecordID(i) {
				t.Fatalf("dup order: %v", rids)
			}
		}
		return bt.Delete(tx, 7, 15)
	})
	run(t, w, func(tx *core.Txn) error {
		cnt := 0
		if err := bt.Scan(tx, 7, 7, -1, func(k uint64, r storage.RecordID) bool { cnt++; return true }); err != nil {
			return err
		}
		if cnt != 29 {
			t.Fatalf("after delete: %d", cnt)
		}
		return nil
	})
}

func TestMVBTreeUnique(t *testing.T) {
	e := newEngine(1)
	bt := NewMVBTree(e, "bt", true)
	w := e.Worker(0)
	run(t, w, func(tx *core.Txn) error { return bt.Insert(tx, 5, 1) })
	err := w.Run(func(tx *core.Txn) error { return bt.Insert(tx, 5, 2) })
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("unique violation: %v", err)
	}
}

// finish commits tx if err is nil and rolls it back otherwise, as Worker.Run
// does for one attempt.
func finish(tx *core.Txn, err error) error {
	if err == nil {
		return tx.Commit()
	}
	tx.Abort()
	return err
}

// TestMVBTreePhantomOnScan pits a committed or in-flight range scan against
// a structural change inside the scanned range — an insert, and a delete
// that empties a leaf and so frees it, relinks its left neighbour and
// rewrites its parent. Whatever the
// interleaving, the writer aborts, the scanner aborts, or the scanner
// serializes before the writer having seen the range as it was.
func TestMVBTreePhantomOnScan(t *testing.T) {
	const n = 40 // six leaves under one root; keys 14..20 fill the third
	setup := func(t *testing.T) (bt *MVBTree, early, late *core.Txn) {
		e := newEngine(2)
		bt = NewMVBTree(e, "bt", false)
		w0, w1 := e.Worker(0), e.Worker(1)
		for k := uint64(0); k < n; k++ {
			k := k
			run(t, w0, func(tx *core.Txn) error { return bt.Insert(tx, k, storage.RecordID(k)) })
		}
		early = w0.Begin()
		w1.ObserveTimestamp(early.Timestamp())
		return bt, early, w1.Begin()
	}
	scan := func(bt *MVBTree, tx *core.Txn, each func(k uint64)) (int, error) {
		cnt := 0
		err := bt.Scan(tx, 0, n, -1, func(k uint64, _ storage.RecordID) bool {
			if each != nil {
				each(k)
			}
			cnt++
			return true
		})
		return cnt, err
	}
	freeLeaf := func(bt *MVBTree, tx *core.Txn) error {
		for k := uint64(14); k <= 20; k++ {
			if err := bt.Delete(tx, k, storage.RecordID(k)); err != nil {
				return err
			}
		}
		return nil
	}

	t.Run("insert below a committed scan aborts", func(t *testing.T) {
		bt, inserter, scanner := setup(t)
		if cnt, err := scan(bt, scanner, nil); cnt != n || finish(scanner, err) != nil {
			t.Fatalf("scan: %d keys, %v", cnt, err)
		}
		// The leaf has room: a plain phantom inside the scanned range.
		if err := finish(inserter, bt.Insert(inserter, 17, 99)); !errors.Is(err, core.ErrAborted) {
			t.Fatalf("phantom insert not aborted: %v", err)
		}
	})
	t.Run("free below a committed scan aborts", func(t *testing.T) {
		bt, deleter, scanner := setup(t)
		if cnt, err := scan(bt, scanner, nil); cnt != n || finish(scanner, err) != nil {
			t.Fatalf("scan: %d keys, %v", cnt, err)
		}
		if err := finish(deleter, freeLeaf(bt, deleter)); !errors.Is(err, core.ErrAborted) {
			t.Fatalf("leaf free under a later committed scan not aborted: %v", err)
		}
	})
	t.Run("earlier scan serializes before a later free", func(t *testing.T) {
		bt, scanner, deleter := setup(t)
		cnt, err := scan(bt, scanner, nil)
		if err != nil || cnt != n {
			t.Fatalf("scan: %d keys, %v", cnt, err)
		}
		if err := finish(deleter, freeLeaf(bt, deleter)); err != nil {
			t.Fatalf("later free: %v", err)
		}
		if err := scanner.Commit(); err != nil {
			t.Fatalf("earlier scanner, which saw the old parent and the old leaf: %v", err)
		}
	})
	t.Run("earlier free commits under a later scan: scanner aborts", func(t *testing.T) {
		bt, deleter, scanner := setup(t)
		cnt, err := scan(bt, scanner, nil)
		if err != nil || cnt != n {
			t.Fatalf("scan: %d keys, %v", cnt, err)
		}
		if err := finish(deleter, freeLeaf(bt, deleter)); err != nil {
			t.Fatalf("earlier free, committed before the scanner validated: %v", err)
		}
		if err := scanner.Commit(); !errors.Is(err, core.ErrAborted) {
			t.Fatalf("scanner that read a since-freed leaf committed: %v", err)
		}
	})
	t.Run("scan that reaches a freed leaf through a stale link aborts", func(t *testing.T) {
		bt, deleter, scanner := setup(t)
		var derr error
		_, err := scan(bt, scanner, func(k uint64) {
			if k == 7 { // inside the second leaf, which links to the third
				derr = finish(deleter, freeLeaf(bt, deleter))
			}
		})
		if derr != nil {
			t.Fatalf("earlier free: %v", derr)
		}
		if !errors.Is(err, core.ErrAborted) {
			t.Fatalf("scan followed a dangling link: %v", err)
		}
		scanner.Abort()
	})
}

func TestMVBTreeAbortLeavesNoTrace(t *testing.T) {
	e := newEngine(1)
	bt := NewMVBTree(e, "bt", false)
	w := e.Worker(0)
	run(t, w, func(tx *core.Txn) error { return bt.Insert(tx, 1, 1) })
	sentinel := errors.New("rollback")
	err := w.Run(func(tx *core.Txn) error {
		for k := 100; k < 160; k++ { // enough to force splits
			if err := bt.Insert(tx, uint64(k), storage.RecordID(k)); err != nil {
				return err
			}
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatal(err)
	}
	run(t, w, func(tx *core.Txn) error {
		cnt := 0
		if err := bt.Scan(tx, 0, 1000, -1, func(k uint64, r storage.RecordID) bool { cnt++; return true }); err != nil {
			return err
		}
		if cnt != 1 {
			t.Fatalf("aborted inserts visible: %d entries", cnt)
		}
		return nil
	})
}

func TestMVBTreeConcurrentInserts(t *testing.T) {
	e := newEngine(4)
	bt := NewMVBTree(e, "bt", false)
	const perWorker = 250
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := e.Worker(id)
			for i := 0; i < perWorker; i++ {
				k := uint64(id*perWorker + i)
				err := w.Run(func(tx *core.Txn) error { return bt.Insert(tx, k, storage.RecordID(k)) })
				if err != nil {
					t.Errorf("worker %d insert %d: %v", id, k, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	observeAll(e, e.Worker(0))
	run(t, e.Worker(0), func(tx *core.Txn) error {
		cnt := 0
		prev := -1
		if err := bt.Scan(tx, 0, ^uint64(0), -1, func(k uint64, r storage.RecordID) bool {
			if int(k) <= prev {
				t.Errorf("order violation at %d after %d", k, prev)
			}
			prev = int(k)
			cnt++
			return true
		}); err != nil {
			return err
		}
		if cnt != 4*perWorker {
			t.Fatalf("tree has %d of %d entries", cnt, 4*perWorker)
		}
		return nil
	})
}

func TestMVBTreeGetNextLeafBoundary(t *testing.T) {
	// Force duplicates of one key to span a leaf boundary and check Get and
	// Scan still find them.
	e := newEngine(1)
	bt := NewMVBTree(e, "bt", false)
	w := e.Worker(0)
	run(t, w, func(tx *core.Txn) error {
		if err := bt.Insert(tx, 5, 0); err != nil {
			return err
		}
		for r := 0; r < 40; r++ {
			if err := bt.Insert(tx, 10, storage.RecordID(r)); err != nil {
				return err
			}
		}
		return nil
	})
	run(t, w, func(tx *core.Txn) error {
		rid, err := bt.Get(tx, 10)
		if err != nil || rid != 0 {
			t.Fatalf("get across boundary: %d %v", rid, err)
		}
		cnt := 0
		if err := bt.Scan(tx, 10, 10, -1, func(k uint64, r storage.RecordID) bool { cnt++; return true }); err != nil {
			return err
		}
		if cnt != 40 {
			t.Fatalf("dup count %d", cnt)
		}
		return nil
	})
}

func TestMVHashConcurrentDistinctKeys(t *testing.T) {
	e := newEngine(4)
	h := NewMVHash(e, "idx", 4096, false)
	const perWorker = 250
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := e.Worker(id)
			for i := 0; i < perWorker; i++ {
				k := uint64(id*perWorker + i)
				if err := w.Run(func(tx *core.Txn) error { return h.Insert(tx, k, storage.RecordID(k)) }); err != nil {
					t.Errorf("insert %d: %v", k, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	observeAll(e, e.Worker(0))
	run(t, e.Worker(0), func(tx *core.Txn) error {
		for k := 0; k < 4*perWorker; k++ {
			rid, err := h.Get(tx, uint64(k))
			if err != nil || rid != storage.RecordID(k) {
				return fmt.Errorf("key %d: %d %v", k, rid, err)
			}
		}
		return nil
	})
}
