package core

import (
	"testing"

	"cicada/internal/storage"
)

// Microbenchmarks for the steady-state transaction hot path. These are the
// numbers the allocation-budget contract (docs/PERFORMANCE.md) protects:
// after warm-up, the execute/validate/write loop of a read, RMW, or
// insert+delete transaction must not allocate.

const benchRecordSize = 64

// benchSetup builds a single-worker engine with one table preloaded with n
// records of benchRecordSize bytes each (record IDs 0..n-1).
func benchSetup(tb testing.TB, n int) (*Engine, *Table, *Worker) {
	tb.Helper()
	e := NewEngine(DefaultOptions(1))
	t := e.CreateTable("bench")
	w := e.Worker(0)
	for i := 0; i < n; i++ {
		err := w.Run(func(tx *Txn) error {
			_, buf, err := tx.Insert(t, benchRecordSize)
			if err != nil {
				return err
			}
			buf[0] = byte(i)
			return nil
		})
		if err != nil {
			tb.Fatalf("preload: %v", err)
		}
	}
	// Advance the read-only snapshot horizon past the preload commits so
	// BeginRO sees them (min_wts only moves during maintenance).
	for i := 0; i < 1_000_000; i++ {
		w.Idle()
		ok := false
		_ = w.RunRO(func(tx *Txn) error {
			_, err := tx.Read(t, 0)
			ok = err == nil
			return nil
		})
		if ok {
			return e, t, w
		}
	}
	tb.Fatal("preload never became visible to read-only snapshots")
	return e, t, w
}

// BenchmarkRunEmpty and BenchmarkRunReadOnlyEmpty time the transaction
// envelope alone (docs/PERFORMANCE.md "Transaction envelope"): begin, an
// empty body, commit, accounting and maintenance, with no record access.
func BenchmarkRunEmpty(b *testing.B) {
	w := NewEngine(DefaultOptions(1)).Worker(0)
	benchEnvelope(b, w.Run)
}

func BenchmarkRunReadOnlyEmpty(b *testing.B) {
	w := NewEngine(DefaultOptions(1)).Worker(0)
	benchEnvelope(b, w.RunRO)
}

func benchEnvelope(b *testing.B, run func(func(*Txn) error) error) {
	fn := func(*Txn) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(fn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTxnRead(b *testing.B) {
	_, tbl, w := benchSetup(b, 16)
	fn := func(tx *Txn) error {
		_, err := tx.Read(tbl, 0)
		return err
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(fn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTxnReadOnly(b *testing.B) {
	_, tbl, w := benchSetup(b, 16)
	fn := func(tx *Txn) error {
		_, err := tx.Read(tbl, 0)
		return err
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.RunRO(fn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTxnRMW(b *testing.B) {
	_, tbl, w := benchSetup(b, 16)
	fn := func(tx *Txn) error {
		buf, err := tx.Update(tbl, 0, -1)
		if err != nil {
			return err
		}
		buf[0]++
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(fn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTxnRMW8 touches 8 records per transaction: large enough to
// exercise write-set sorting before the adaptive skip kicks in, and the
// own-writes table across several entries.
func BenchmarkTxnRMW8(b *testing.B) {
	_, tbl, w := benchSetup(b, 16)
	fn := func(tx *Txn) error {
		for r := storage.RecordID(0); r < 8; r++ {
			buf, err := tx.Update(tbl, r, -1)
			if err != nil {
				return err
			}
			buf[0]++
		}
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(fn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTxnInsert measures the steady-state insert path: each iteration
// inserts a record in one transaction and deletes it in the next, so record
// IDs and versions recycle through GC instead of growing the table.
func BenchmarkTxnInsert(b *testing.B) {
	_, tbl, w := benchSetup(b, 16)
	var rid storage.RecordID
	ins := func(tx *Txn) error {
		r, buf, err := tx.Insert(tbl, benchRecordSize)
		if err != nil {
			return err
		}
		buf[0] = 1
		rid = r
		return nil
	}
	del := func(tx *Txn) error { return tx.Delete(tbl, rid) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(ins); err != nil {
			b.Fatal(err)
		}
		if err := w.Run(del); err != nil {
			b.Fatal(err)
		}
	}
}
