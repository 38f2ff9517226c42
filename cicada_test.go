package cicada_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	cicada "cicada"
)

func TestPublicAPIQuickstart(t *testing.T) {
	db := cicada.Open(cicada.DefaultConfig(2))
	tbl := db.CreateTable("accounts")
	byID := db.CreateHashIndex("accounts_by_id", 256, true)

	w := db.Worker(0)
	if err := w.Run(func(tx *cicada.Txn) error {
		rid, buf, err := tx.Insert(tbl, 8)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(buf, 100)
		return byID.Insert(tx, 42, rid)
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(tx *cicada.Txn) error {
		rid, err := byID.Get(tx, 42)
		if err != nil {
			return err
		}
		d, err := tx.Read(tbl, rid)
		if err != nil {
			return err
		}
		if binary.LittleEndian.Uint64(d) != 100 {
			t.Errorf("balance %d", binary.LittleEndian.Uint64(d))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(tx *cicada.Txn) error {
		return byID.Insert(tx, 42, 99)
	}); !errors.Is(err, cicada.ErrDuplicate) {
		t.Fatalf("unique violation: %v", err)
	}
	if db.Stats().Commits < 2 {
		t.Fatalf("stats %+v", db.Stats())
	}
}

func TestPublicAPIBTreeAndSnapshot(t *testing.T) {
	db := cicada.Open(cicada.DefaultConfig(2))
	tbl := db.CreateTable("t")
	bt := db.CreateBTreeIndex("t_by_key", false)
	w := db.Worker(0)
	var loaded cicada.Timestamp
	for k := uint64(0); k < 100; k++ {
		k := k
		if err := w.Run(func(tx *cicada.Txn) error {
			loaded = tx.Timestamp()
			rid, buf, err := tx.Insert(tbl, 8)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(buf, k)
			return bt.Insert(tx, k, rid)
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Let the snapshot horizon pass the load, then scan read-only. The
	// horizon moves one step per GCInterval however often Idle is called, so
	// wait for the event rather than for a number of calls.
	for db.Worker(1).SnapshotTimestamp() < loaded {
		db.Worker(0).Idle()
		db.Worker(1).Idle()
	}
	if err := db.Worker(1).RunReadOnly(func(tx *cicada.Txn) error {
		if !tx.ReadOnly() {
			t.Error("not read-only")
		}
		n := 0
		prev := int64(-1)
		if err := bt.Scan(tx, 10, 59, -1, func(k uint64, rid cicada.RecordID) bool {
			if int64(k) <= prev {
				t.Errorf("out of order: %d after %d", k, prev)
			}
			prev = int64(k)
			n++
			return true
		}); err != nil {
			return err
		}
		if n != 50 {
			t.Errorf("scanned %d", n)
		}
		if _, err := tx.Write(tbl, 0, 1); !errors.Is(err, cicada.ErrReadOnly) {
			t.Errorf("write in RO: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIWALRecovery(t *testing.T) {
	dir := t.TempDir()
	open := func() (*cicada.DB, *cicada.Table, *cicada.HashIndex) {
		db := cicada.Open(cicada.DefaultConfig(1))
		tbl := db.CreateTable("kv")
		idx := db.CreateHashIndex("kv_by_key", 256, true)
		return db, tbl, idx
	}
	db, tbl, idx := open()
	w, err := db.AttachWAL(cicada.WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	wk := db.Worker(0)
	for k := uint64(0); k < 20; k++ {
		k := k
		if err := wk.Run(func(tx *cicada.Txn) error {
			rid, buf, err := tx.Insert(tbl, 8)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(buf, k*7)
			return idx.Insert(tx, k, rid)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	db2, tbl2, idx2 := open()
	stats, err := db2.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Installed == 0 {
		t.Fatalf("stats %+v", stats)
	}
	if err := db2.Worker(0).Run(func(tx *cicada.Txn) error {
		for k := uint64(0); k < 20; k++ {
			rid, err := idx2.Get(tx, k)
			if err != nil {
				return err
			}
			d, err := tx.Read(tbl2, rid)
			if err != nil {
				return err
			}
			if binary.LittleEndian.Uint64(d) != k*7 {
				t.Errorf("key %d: %d", k, binary.LittleEndian.Uint64(d))
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIConcurrentWorkers(t *testing.T) {
	const workers = 4
	db := cicada.Open(cicada.DefaultConfig(workers))
	tbl := db.CreateTable("counter")
	var rid cicada.RecordID
	if err := db.Worker(0).Run(func(tx *cicada.Txn) error {
		r, buf, err := tx.Insert(tbl, 8)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(buf, 0)
		rid = r
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const per = 100
	var last [workers]cicada.Timestamp
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := db.Worker(id)
			for i := 0; i < per; i++ {
				if err := w.Run(func(tx *cicada.Txn) error {
					last[id] = tx.Timestamp()
					buf, err := tx.Update(tbl, rid, -1)
					if err != nil {
						return err
					}
					binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)+1)
					return nil
				}); err != nil {
					t.Errorf("worker %d: %v", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	// Worker clocks are only loosely synchronized: serialize the audit after
	// every worker's last commit, or it may read an older, correct snapshot.
	for _, ts := range last {
		db.Worker(0).ObserveTimestamp(ts)
	}
	// ReadDirect reads at the snapshot horizon, which may lag; the final
	// audit uses a read-write transaction for an up-to-date view.
	if d0, ok := db.Worker(0).ReadDirect(tbl, rid); ok && binary.LittleEndian.Uint64(d0) > workers*per {
		t.Fatalf("direct read beyond maximum: %d", binary.LittleEndian.Uint64(d0))
	}
	var d []byte
	if err := db.Worker(0).Run(func(tx *cicada.Txn) error {
		dd, err := tx.Read(tbl, rid)
		d = append([]byte(nil), dd...)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(d); got != workers*per {
		t.Fatalf("counter %d, want %d", got, workers*per)
	}
}

func TestPublicAPITracing(t *testing.T) {
	cfg := cicada.DefaultConfig(2)
	cfg.Telemetry = true
	cfg.Trace = true
	cfg.TraceSampleEvery = 1
	db := cicada.Open(cfg)
	tbl := db.CreateTable("traced")

	w := db.Worker(0)
	var rid cicada.RecordID
	if err := w.Run(func(tx *cicada.Txn) error {
		id, buf, err := tx.Insert(tbl, 8)
		if err != nil {
			return err
		}
		rid = id
		binary.LittleEndian.PutUint64(buf, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w.Run(func(tx *cicada.Txn) error {
			buf, err := tx.Update(tbl, rid, -1)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := db.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteTrace output is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("WriteTrace emitted no events at 1/1 sampling")
	}

	// The contention report is well-formed even with no conflicts recorded.
	rep := db.Contention(4)
	if rep.TotalWaitNs < 0 || len(rep.TopKeys) > 4 {
		t.Fatalf("contention report %+v", rep)
	}

	// MetricsHandler mounts the trace endpoint alongside /metrics.
	srv := httptest.NewServer(db.MetricsHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/cicada-trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/cicada-trace status %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("traceEvents")) {
		t.Fatalf("trace endpoint body lacks traceEvents: %.120s", body)
	}

	// Without Config.Trace, the trace surface degrades explicitly.
	plain := cicada.Open(cicada.DefaultConfig(1))
	if err := plain.WriteTrace(io.Discard); err == nil {
		t.Fatal("WriteTrace on an untraced DB should fail")
	}
	if rep := plain.Contention(4); len(rep.TopKeys) != 0 {
		t.Fatalf("untraced Contention returned keys: %+v", rep)
	}
}
