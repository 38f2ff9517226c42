// Package enginetest is a conformance battery run against every concurrency
// control scheme in the repository (Cicada and the six baselines): CRUD
// semantics, index operations, invariant preservation under concurrency, and
// a serializability check based on commit-order replay.
package enginetest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"cicada/internal/engine"
)

// Factories returns the engines under test, keyed by scheme name, built via
// the given config.
type Factories map[string]engine.Factory

// RunAll runs the full battery for each factory under both index
// disciplines.
func RunAll(t *testing.T, fs Factories) {
	for name, f := range fs {
		name, f := name, f
		t.Run(name, func(t *testing.T) {
			t.Run("CRUD", func(t *testing.T) { testCRUD(t, f) })
			t.Run("Indexes", func(t *testing.T) { testIndexes(t, f) })
			t.Run("BankInvariant", func(t *testing.T) { testBank(t, f) })
			t.Run("ScanInvariant", func(t *testing.T) { testScanInvariant(t, f) })
			t.Run("CommitOrderSerializability", func(t *testing.T) { testSerializability(t, f) })
			t.Run("DeferredIndexMode", func(t *testing.T) { testDeferredIndexes(t, f) })
		})
	}
}

func cfg(workers int, phantom bool) engine.Config {
	return engine.Config{Workers: workers, PhantomAvoidance: phantom, HashBucketsHint: 1 << 12}
}

func u64(b []byte) uint64       { return binary.LittleEndian.Uint64(b) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

func testCRUD(t *testing.T, f engine.Factory) {
	db := f(cfg(1, true))
	tbl := db.CreateTable("t")
	w := db.Worker(0)

	var rid engine.RecordID
	if err := w.Run(func(tx engine.Tx) error {
		r, buf, err := tx.Insert(tbl, 8)
		if err != nil {
			return err
		}
		putU64(buf, 1111)
		rid = r
		return nil
	}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := w.Run(func(tx engine.Tx) error {
		d, err := tx.Read(tbl, rid)
		if err != nil {
			return err
		}
		if u64(d) != 1111 {
			t.Errorf("read %d", u64(d))
		}
		buf, err := tx.Update(tbl, rid, -1)
		if err != nil {
			return err
		}
		if u64(buf) != 1111 {
			t.Errorf("update buffer %d", u64(buf))
		}
		putU64(buf, 2222)
		d2, err := tx.Read(tbl, rid)
		if err != nil {
			return err
		}
		if u64(d2) != 2222 {
			t.Errorf("read-own-write %d", u64(d2))
		}
		return nil
	}); err != nil {
		t.Fatalf("update: %v", err)
	}
	if err := w.Run(func(tx engine.Tx) error {
		d, err := tx.Read(tbl, rid)
		if err != nil {
			return err
		}
		if u64(d) != 2222 {
			t.Errorf("after update: %d", u64(d))
		}
		return tx.Delete(tbl, rid)
	}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	err := w.Run(func(tx engine.Tx) error {
		_, err := tx.Read(tbl, rid)
		return err
	})
	if !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("read after delete: %v", err)
	}
	// User abort leaves no trace.
	sentinel := errors.New("user rollback")
	var rid2 engine.RecordID
	err = w.Run(func(tx engine.Tx) error {
		r, buf, err := tx.Insert(tbl, 8)
		if err != nil {
			return err
		}
		putU64(buf, 3333)
		rid2 = r
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("user abort: %v", err)
	}
	err = w.Run(func(tx engine.Tx) error {
		_, err := tx.Read(tbl, rid2)
		return err
	})
	if !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("aborted insert visible: %v", err)
	}
}

func testIndexes(t *testing.T, f engine.Factory) {
	db := f(cfg(1, true))
	tbl := db.CreateTable("t")
	hidx := db.CreateHashIndex("h", 1024)
	oidx := db.CreateOrderedIndex("o")
	w := db.Worker(0)

	rids := make([]engine.RecordID, 100)
	for k := 0; k < 100; k++ {
		k := k
		if err := w.Run(func(tx engine.Tx) error {
			rid, buf, err := tx.Insert(tbl, 8)
			if err != nil {
				return err
			}
			putU64(buf, uint64(k))
			rids[k] = rid
			if err := tx.IndexInsert(hidx, uint64(k), rid); err != nil {
				return err
			}
			return tx.IndexInsert(oidx, uint64(k), rid)
		}); err != nil {
			t.Fatalf("load %d: %v", k, err)
		}
	}
	if err := w.Run(func(tx engine.Tx) error {
		for k := 0; k < 100; k += 7 {
			rid, err := tx.IndexGet(hidx, uint64(k))
			if err != nil || rid != rids[k] {
				return fmt.Errorf("hash get %d: %d %v", k, rid, err)
			}
			rid, err = tx.IndexGet(oidx, uint64(k))
			if err != nil || rid != rids[k] {
				return fmt.Errorf("ordered get %d: %d %v", k, rid, err)
			}
		}
		if _, err := tx.IndexGet(hidx, 5000); !errors.Is(err, engine.ErrNotFound) {
			return fmt.Errorf("absent hash get: %v", err)
		}
		var keys []uint64
		if err := tx.IndexScan(oidx, 10, 29, -1, func(k uint64, r engine.RecordID) bool {
			keys = append(keys, k)
			return true
		}); err != nil {
			return err
		}
		if len(keys) != 20 || keys[0] != 10 || keys[19] != 29 {
			return fmt.Errorf("scan keys %v", keys)
		}
		if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			return fmt.Errorf("scan unsorted: %v", keys)
		}
		n := 0
		if err := tx.IndexScan(oidx, 0, 99, 5, func(k uint64, r engine.RecordID) bool { n++; return true }); err != nil {
			return err
		}
		if n != 5 {
			return fmt.Errorf("limit scan %d", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Delete from both indexes.
	if err := w.Run(func(tx engine.Tx) error {
		if err := tx.IndexDelete(hidx, 3, rids[3]); err != nil {
			return err
		}
		return tx.IndexDelete(oidx, 3, rids[3])
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(tx engine.Tx) error {
		if _, err := tx.IndexGet(hidx, 3); !errors.Is(err, engine.ErrNotFound) {
			return fmt.Errorf("hash get after delete: %v", err)
		}
		if _, err := tx.IndexGet(oidx, 3); !errors.Is(err, engine.ErrNotFound) {
			return fmt.Errorf("ordered get after delete: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// testBank checks invariant preservation under concurrent transfers: the
// total balance is constant in every read-write audit and every read-only
// snapshot audit.
func testBank(t *testing.T, f engine.Factory) {
	const (
		accounts = 20
		workers  = 4
		transfer = 300
		total    = uint64(accounts * 1000)
	)
	db := f(cfg(workers, true))
	tbl := db.CreateTable("accounts")
	idx := db.CreateHashIndex("by_id", 64)
	w0 := db.Worker(0)
	for a := 0; a < accounts; a++ {
		a := a
		if err := w0.Run(func(tx engine.Tx) error {
			rid, buf, err := tx.Insert(tbl, 8)
			if err != nil {
				return err
			}
			putU64(buf, 1000)
			return tx.IndexInsert(idx, uint64(a), rid)
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := db.Worker(id)
			rng := rand.New(rand.NewSource(int64(id) + 42))
			for i := 0; i < transfer; i++ {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				if from == to {
					continue
				}
				amt := uint64(rng.Intn(50))
				err := w.Run(func(tx engine.Tx) error {
					fr, err := tx.IndexGet(idx, uint64(from))
					if err != nil {
						return err
					}
					tr, err := tx.IndexGet(idx, uint64(to))
					if err != nil {
						return err
					}
					fb, err := tx.Update(tbl, fr, -1)
					if err != nil {
						return err
					}
					if u64(fb) < amt {
						return nil // insufficient funds; commit unchanged
					}
					tb, err := tx.Update(tbl, tr, -1)
					if err != nil {
						return err
					}
					putU64(fb, u64(fb)-amt)
					putU64(tb, u64(tb)+amt)
					return nil
				})
				if err != nil {
					t.Errorf("worker %d: %v", id, err)
					return
				}
				// Periodic read-only snapshot audit.
				if i%50 == 0 {
					err := w.RunRO(func(tx engine.Tx) error {
						var sum uint64
						for a := 0; a < accounts; a++ {
							rid, err := tx.IndexGet(idx, uint64(a))
							if err != nil {
								return err
							}
							d, err := tx.Read(tbl, rid)
							if err != nil {
								return err
							}
							sum += u64(d)
						}
						if sum != total {
							return fmt.Errorf("snapshot sum %d != %d", sum, total)
						}
						return nil
					})
					if err != nil && !errors.Is(err, engine.ErrNotFound) {
						t.Errorf("worker %d audit: %v", id, err)
						return
					}
				}
			}
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := w0.Run(func(tx engine.Tx) error {
		var sum uint64
		for a := 0; a < accounts; a++ {
			rid, err := tx.IndexGet(idx, uint64(a))
			if err != nil {
				return err
			}
			d, err := tx.Read(tbl, rid)
			if err != nil {
				return err
			}
			sum += u64(d)
		}
		if sum != total {
			return fmt.Errorf("final sum %d != %d", sum, total)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if s := db.Stats(); s.Commits == 0 {
		t.Fatal("no commits recorded")
	}
}

// testScanInvariant checks phantom avoidance: writers atomically insert and
// delete indexed records in balanced pairs while scanners verify that a
// range scan always observes a multiple of the pair value.
func testScanInvariant(t *testing.T, f engine.Factory) {
	const workers = 4
	db := f(cfg(workers, true))
	tbl := db.CreateTable("t")
	idx := db.CreateOrderedIndex("o")
	w0 := db.Worker(0)
	// Seed: 10 pairs (key k and k+1000 always created/removed together).
	if err := w0.Run(func(tx engine.Tx) error {
		for k := uint64(0); k < 10; k++ {
			for _, key := range []uint64{k, k + 1000} {
				rid, buf, err := tx.Insert(tbl, 8)
				if err != nil {
					return err
				}
				putU64(buf, key)
				if err := tx.IndexInsert(idx, key, rid); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := db.Worker(id)
			rng := rand.New(rand.NewSource(int64(id) + 7))
			for i := 0; i < 150; i++ {
				if id%2 == 0 {
					// Scanner: count entries; pairs mean the count of
					// [0,2000] is always even — judged once the transaction
					// has committed: optimistic engines validate reads at
					// commit, so a doomed attempt may have seen half a pair.
					n := 0
					err := w.Run(func(tx engine.Tx) error {
						n = 0
						return tx.IndexScan(idx, 0, 2000, -1, func(k uint64, r engine.RecordID) bool {
							n++
							return true
						})
					})
					if err == nil && n%2 != 0 {
						err = fmt.Errorf("phantom: committed scan saw %d entries", n)
					}
					if err != nil {
						t.Errorf("scanner %d: %v", id, err)
						return
					}
					continue
				}
				// Writer: insert or remove a pair atomically.
				k := uint64(10 + rng.Intn(20))
				// gone is a row or index entry the attempt found missing right
				// after finding its key. Only a commit certifies what an
				// optimistic attempt read, so the attempt goes on to commit:
				// a stale one fails validation and is retried, and one that
				// commits has lost a key.
				var gone error
				err := w.Run(func(tx engine.Tx) error {
					gone = nil
					if _, err := tx.IndexGet(idx, k); errors.Is(err, engine.ErrNotFound) {
						for _, key := range []uint64{k, k + 1000} {
							rid, buf, err := tx.Insert(tbl, 8)
							if err != nil {
								return err
							}
							putU64(buf, key)
							if err := tx.IndexInsert(idx, key, rid); err != nil {
								return err
							}
						}
						return nil
					}
					for _, key := range []uint64{k, k + 1000} {
						rid, err := tx.IndexGet(idx, key)
						if errors.Is(err, engine.ErrNotFound) {
							return engine.ErrAborted // racing pair change; retry
						}
						if err != nil {
							return err
						}
						err = tx.IndexDelete(idx, key, rid)
						if err == nil {
							err = tx.Delete(tbl, rid)
						}
						if errors.Is(err, engine.ErrNotFound) {
							gone = fmt.Errorf("key %d found, then: %w", key, err)
							return nil
						}
						if err != nil {
							return err
						}
					}
					return nil
				})
				if err == nil {
					err = gone
				}
				if err != nil {
					t.Errorf("writer %d: %v", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
}

// testSerializability replays the committed history: every record value is
// its last writer's per-engine commit order token; reads must match a serial
// order. We use a monotonically increasing value per record (each RMW adds
// 1): any lost update or stale read breaks the final count.
func testSerializability(t *testing.T, f engine.Factory) {
	const (
		workers = 4
		records = 8
		perW    = 150
	)
	db := f(cfg(workers, true))
	tbl := db.CreateTable("t")
	w0 := db.Worker(0)
	rids := make([]engine.RecordID, records)
	for i := range rids {
		i := i
		if err := w0.Run(func(tx engine.Tx) error {
			rid, buf, err := tx.Insert(tbl, 8)
			if err != nil {
				return err
			}
			putU64(buf, 0)
			rids[i] = rid
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	counts := make([][]uint64, workers)
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 1))
			w := db.Worker(id)
			local := make([]uint64, records)
			for i := 0; i < perW; i++ {
				a, b := rng.Intn(records), rng.Intn(records)
				err := w.Run(func(tx engine.Tx) error {
					// Increment two counters atomically.
					ba, err := tx.Update(tbl, rids[a], -1)
					if err != nil {
						return err
					}
					putU64(ba, u64(ba)+1)
					if b != a {
						bb, err := tx.Update(tbl, rids[b], -1)
						if err != nil {
							return err
						}
						putU64(bb, u64(bb)+1)
					}
					return nil
				})
				if err != nil {
					t.Errorf("worker %d: %v", id, err)
					return
				}
				local[a]++
				if b != a {
					local[b]++
				}
			}
			counts[id] = local
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := make([]uint64, records)
	for _, local := range counts {
		for i, n := range local {
			want[i] += n
		}
	}
	if err := w0.Run(func(tx engine.Tx) error {
		for i, rid := range rids {
			d, err := tx.Read(tbl, rid)
			if err != nil {
				return err
			}
			if u64(d) != want[i] {
				return fmt.Errorf("record %d: got %d, want %d (lost updates)", i, u64(d), want[i])
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// testDeferredIndexes smoke-tests the Figure 4 configuration: deferred
// index updates without phantom avoidance.
func testDeferredIndexes(t *testing.T, f engine.Factory) {
	db := f(cfg(2, false))
	tbl := db.CreateTable("t")
	hidx := db.CreateHashIndex("h", 256)
	oidx := db.CreateOrderedIndex("o")
	w := db.Worker(0)
	if err := w.Run(func(tx engine.Tx) error {
		rid, buf, err := tx.Insert(tbl, 8)
		if err != nil {
			return err
		}
		putU64(buf, 42)
		if err := tx.IndexInsert(hidx, 1, rid); err != nil {
			return err
		}
		if err := tx.IndexInsert(oidx, 1, rid); err != nil {
			return err
		}
		// Deferred mode must still honor read-own-index-writes for point
		// lookups.
		got, err := tx.IndexGet(hidx, 1)
		if err != nil || got != rid {
			return fmt.Errorf("own index get: %d %v", got, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(tx engine.Tx) error {
		rid, err := tx.IndexGet(hidx, 1)
		if err != nil {
			return err
		}
		d, err := tx.Read(tbl, rid)
		if err != nil {
			return err
		}
		if u64(d) != 42 {
			return fmt.Errorf("read %d", u64(d))
		}
		n := 0
		if err := tx.IndexScan(oidx, 0, 10, -1, func(k uint64, r engine.RecordID) bool { n++; return true }); err != nil {
			return err
		}
		if n != 1 {
			return fmt.Errorf("scan %d", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Abort leaves no deferred index application.
	sentinel := errors.New("rollback")
	err := w.Run(func(tx engine.Tx) error {
		rid, _, err := tx.Insert(tbl, 8)
		if err != nil {
			return err
		}
		if err := tx.IndexInsert(hidx, 2, rid); err != nil {
			return err
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatal(err)
	}
	if err := w.Run(func(tx engine.Tx) error {
		if _, err := tx.IndexGet(hidx, 2); !errors.Is(err, engine.ErrNotFound) {
			return fmt.Errorf("aborted deferred insert applied: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
