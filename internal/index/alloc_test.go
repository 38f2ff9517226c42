package index

import (
	"testing"

	"cicada/internal/core"
)

// Allocation budgets for the multi-version indexes (docs/PERFORMANCE.md):
// index nodes are Cicada records encoded in place, so steady-state Get and
// Insert+Delete cycles inherit the engine's zero-allocation contract.

const idxAllocWarmup = 3000

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budgets enforced in non-race builds")
	}
	for i := 0; i < idxAllocWarmup; i++ {
		fn()
	}
	if avg := testing.AllocsPerRun(1000, fn); avg != 0 {
		t.Errorf("%s: %.3f allocs/op; budget is 0", name, avg)
	}
}

func TestAllocBudgetMVHashGet(t *testing.T) {
	h, w := benchHash(t)
	fn := func(tx *core.Txn) error {
		_, err := h.Get(tx, 42)
		return err
	}
	assertZeroAllocs(t, "MVHash get txn", func() {
		if err := w.Run(fn); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocBudgetMVHashInsertDelete(t *testing.T) {
	h, w := benchHash(t)
	const k = benchKeys + 1
	fn := func(tx *core.Txn) error {
		if err := h.Insert(tx, k, 7); err != nil {
			return err
		}
		return h.Delete(tx, k, 7)
	}
	assertZeroAllocs(t, "MVHash insert+delete txn", func() {
		if err := w.Run(fn); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocBudgetMVBTreeGet(t *testing.T) {
	tr, w := benchTree(t)
	fn := func(tx *core.Txn) error {
		_, err := tr.Get(tx, 42*2)
		return err
	}
	assertZeroAllocs(t, "MVBTree get txn", func() {
		if err := w.Run(fn); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocBudgetMVBTreeInsertDelete(t *testing.T) {
	tr, w := benchTree(t)
	fn := func(tx *core.Txn) error {
		if err := tr.Insert(tx, 101, 7); err != nil {
			return err
		}
		return tr.Delete(tx, 101, 7)
	}
	assertZeroAllocs(t, "MVBTree insert+delete txn", func() {
		if err := w.Run(fn); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocBudgetMVBTreeQueueChurn is the queue shape: push the tail, pop the
// head. One leaf is freed every seven operations and an internal node every
// thirty-five, so the warm-up crosses hundreds of frees; in steady state
// every split must be served by a reclaimed node record and its versions.
func TestAllocBudgetMVBTreeQueueChurn(t *testing.T) {
	tr, step := benchQueue(t)
	capBefore := tr.Table().Storage().Cap()
	assertZeroAllocs(t, "MVBTree queue push+pop txn", func() {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	})
	if grown := tr.Table().Storage().Cap() - capBefore; grown > 16 {
		t.Errorf("node table grew by %d records over %d operations", grown, idxAllocWarmup+1000)
	}
}
