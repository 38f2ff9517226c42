package index

import (
	"testing"

	"cicada/internal/core"
	"cicada/internal/storage"
)

// Microbenchmarks for the multi-version index hot paths. Index nodes are
// ordinary Cicada records, so these exercise the engine's read/RMW machinery
// through the index encoding layer; the allocation-budget contract
// (docs/PERFORMANCE.md) requires steady-state Get and Insert+Delete cycles
// to stay allocation-free.

const benchKeys = 1024

func benchHash(tb testing.TB) (*MVHash, *core.Worker) {
	tb.Helper()
	e := core.NewEngine(core.DefaultOptions(1))
	h := NewMVHash(e, "idx", benchKeys, false)
	w := e.Worker(0)
	for i := 0; i < benchKeys; i++ {
		if err := w.Run(func(tx *core.Txn) error {
			return h.Insert(tx, uint64(i), storage.RecordID(i))
		}); err != nil {
			tb.Fatalf("preload: %v", err)
		}
	}
	return h, w
}

func BenchmarkMVHashGet(b *testing.B) {
	h, w := benchHash(b)
	var k uint64
	fn := func(tx *core.Txn) error {
		_, err := h.Get(tx, k)
		return err
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k = uint64(i % benchKeys)
		if err := w.Run(fn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMVHashInsert measures an insert+delete cycle on a fresh key, the
// steady-state shape of secondary index maintenance.
func BenchmarkMVHashInsert(b *testing.B) {
	h, w := benchHash(b)
	const k = benchKeys + 1
	fn := func(tx *core.Txn) error {
		if err := h.Insert(tx, k, 7); err != nil {
			return err
		}
		return h.Delete(tx, k, 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(fn); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTree(tb testing.TB) (*MVBTree, *core.Worker) {
	tb.Helper()
	e := core.NewEngine(core.DefaultOptions(1))
	t := NewMVBTree(e, "idx", false)
	w := e.Worker(0)
	for i := 0; i < benchKeys; i++ {
		if err := w.Run(func(tx *core.Txn) error {
			return t.Insert(tx, uint64(i*2), storage.RecordID(i))
		}); err != nil {
			tb.Fatalf("preload: %v", err)
		}
	}
	return t, w
}

func BenchmarkMVBTreeGet(b *testing.B) {
	t, w := benchTree(b)
	var k uint64
	fn := func(tx *core.Txn) error {
		_, err := t.Get(tx, k)
		return err
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k = uint64((i % benchKeys) * 2)
		if err := w.Run(fn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMVBTreeInsert measures an insert+delete cycle on a key between
// the preloaded ones (no node splits in steady state).
func BenchmarkMVBTreeInsert(b *testing.B) {
	t, w := benchTree(b)
	fn := func(tx *core.Txn) error {
		if err := t.Insert(tx, 101, 7); err != nil {
			return err
		}
		return t.Delete(tx, 101, 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(fn); err != nil {
			b.Fatal(err)
		}
	}
}

// benchQueue preloads a tree with keys 0..benchKeys-1 and returns a step
// that pushes the next key at the tail and pops the head in one transaction.
func benchQueue(tb testing.TB) (*MVBTree, func() error) {
	tb.Helper()
	e := core.NewEngine(core.DefaultOptions(1))
	t := NewMVBTree(e, "idx", true)
	w := e.Worker(0)
	head, tail := uint64(0), uint64(0)
	push := func(tx *core.Txn) error { return t.Insert(tx, tail, storage.RecordID(tail)) }
	for ; tail < benchKeys; tail++ {
		if err := w.Run(push); err != nil {
			tb.Fatalf("preload: %v", err)
		}
	}
	fn := func(tx *core.Txn) error {
		if err := push(tx); err != nil {
			return err
		}
		return t.Delete(tx, head, storage.RecordID(head))
	}
	return t, func() error {
		err := w.Run(fn)
		head++
		tail++
		return err
	}
}

// BenchmarkMVBTreeQueueChurn measures the queue cycle (insert at the tail,
// delete at the head) and reports nodes/op, the node table's growth per
// operation: it reads 0 when freed nodes are reused.
func BenchmarkMVBTreeQueueChurn(b *testing.B) {
	t, step := benchQueue(b)
	for i := 0; i < idxAllocWarmup; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
	capBefore := t.Table().Storage().Cap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(t.Table().Storage().Cap()-capBefore)/float64(b.N), "nodes/op")
}

func BenchmarkMVBTreeScan16(b *testing.B) {
	t, w := benchTree(b)
	var sum uint64
	fn := func(tx *core.Txn) error {
		return t.Scan(tx, 100, 100+31, 16, func(k uint64, rid storage.RecordID) bool {
			sum += uint64(rid)
			return true
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(fn); err != nil {
			b.Fatal(err)
		}
	}
}
