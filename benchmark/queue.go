package main

import (
	"encoding/binary"
	"fmt"

	"cicada"
)

// embed_queue_1w's table: a FIFO of fixed-size rows keyed by sequence number
// behind a unique B-tree index. Every transaction inserts the row at the
// tail and index-gets and deletes the row at the head; every fourth one also
// scans queueScanRows rows from mid-range and reads them. It drives insert,
// delete, record-ID reuse and the ordered scan — the storage, index and GC
// paths the YCSB workloads never touch — so a point-read gain paid for by
// inserts, scans or leaked memory shows here.
//
// One worker: at the seed two workers running this loop wedge within
// seconds (README.md, "Known failures at seed").

const (
	queueRows     = 100_000
	queueRowSize  = 64
	queueScanRows = 20
	queueScanEach = 4
)

type queueDB struct {
	db   *cicada.DB
	w    *cicada.Worker
	tbl  *cicada.Table
	idx  *cicada.BTreeIndex
	head uint64 // key of the oldest live row
	tail uint64 // key the next insert takes
	seq  uint64 // transactions run, for the every-fourth scan

	tr   *spanBuf
	fn   func(*cicada.Txn) error
	scan func(key uint64, rid cicada.RecordID) bool
	tx   *cicada.Txn // the attempt in progress, for the scan callback
	err  error       // first error inside the scan callback
	rows int
	sink uint64
}

func openQueue() *queueDB {
	db := cicada.Open(cicada.DefaultConfig(1))
	q := &queueDB{
		db:  db,
		w:   db.Worker(0),
		tbl: db.CreateTable("queue"),
		idx: db.CreateBTreeIndex("queue_seq", true),
	}
	q.fn = q.exec
	q.scan = q.visit
	return q
}

func fillRow(buf []byte, key uint64) {
	binary.LittleEndian.PutUint64(buf, key)
	for i := 8; i < len(buf); i++ {
		buf[i] = byte(key)
	}
}

func (q *queueDB) load() error {
	for lo := uint64(0); lo < queueRows; lo += loadBatch {
		err := q.w.Run(func(tx *cicada.Txn) error {
			for k := lo; k < lo+loadBatch; k++ {
				if err := q.push(tx, k, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("load batch at key %d: %w", lo, err)
		}
	}
	q.head, q.tail = 0, queueRows
	return nil
}

func (q *queueDB) push(tx *cicada.Txn, key uint64, tr *spanBuf) error {
	tr.begin(spInsert)
	rid, buf, err := tx.Insert(q.tbl, queueRowSize)
	tr.end()
	if err != nil {
		return fmt.Errorf("insert row %d: %w", key, err)
	}
	fillRow(buf, key)
	tr.begin(spBTreeInsert)
	err = q.idx.Insert(tx, key, rid)
	tr.end()
	if err != nil {
		return fmt.Errorf("index insert %d: %w", key, err)
	}
	return nil
}

// run executes one queue transaction and advances head and tail on commit.
func (q *queueDB) run(tr *spanBuf) error {
	q.tr = tr
	q.seq++
	if err := q.w.Run(q.fn); err != nil {
		return err
	}
	q.head++
	q.tail++
	return nil
}

func (q *queueDB) exec(tx *cicada.Txn) error {
	tr := q.tr
	tr.begin(spExec)
	err := q.steps(tx, tr)
	tr.end()
	return err
}

func (q *queueDB) steps(tx *cicada.Txn, tr *spanBuf) error {
	if err := q.push(tx, q.tail, tr); err != nil {
		return err
	}
	tr.begin(spBTreeGet)
	rid, err := q.idx.Get(tx, q.head)
	tr.end()
	if err != nil {
		return fmt.Errorf("index get head %d: %w", q.head, err)
	}
	tr.begin(spDelete)
	err = tx.Delete(q.tbl, rid)
	tr.end()
	if err != nil {
		return fmt.Errorf("delete head row %d: %w", q.head, err)
	}
	tr.begin(spBTreeDelete)
	err = q.idx.Delete(tx, q.head, rid)
	tr.end()
	if err != nil {
		return fmt.Errorf("index delete head %d: %w", q.head, err)
	}
	if q.seq%queueScanEach != 0 {
		return nil
	}
	q.tx, q.err, q.rows = tx, nil, 0
	mid := q.head + (q.tail-q.head)/2
	tr.begin(spBTreeScan)
	err = q.idx.Scan(tx, mid, q.tail, queueScanRows, q.scan)
	tr.end()
	if err == nil {
		err = q.err
	}
	if err != nil {
		return fmt.Errorf("scan from %d: %w", mid, err)
	}
	if q.rows != queueScanRows {
		return fmt.Errorf("scan from %d visited %d rows, want %d", mid, q.rows, queueScanRows)
	}
	return nil
}

// visit reads one scanned row and checks that it is the row its key names.
func (q *queueDB) visit(key uint64, rid cicada.RecordID) bool {
	q.tr.begin(spRead)
	d, err := q.tx.Read(q.tbl, rid)
	q.tr.end()
	if err != nil {
		q.err = fmt.Errorf("read scanned row %d: %w", key, err)
		return false
	}
	if got := binary.LittleEndian.Uint64(d); got != key {
		q.err = fmt.Errorf("scanned key %d holds row %d", key, got)
		return false
	}
	q.sink += uint64(d[len(d)-1])
	q.rows++
	return true
}

// checkQueue is the queue oracle: a full scan must find exactly queueRows
// live rows with contiguous keys head..tail-1, each holding its own key.
func (q *queueDB) checkQueue() error {
	next, n := q.head, 0
	var bad error
	err := q.w.Run(func(tx *cicada.Txn) error {
		next, n, bad = q.head, 0, nil
		return q.idx.Scan(tx, 0, ^uint64(0), -1, func(key uint64, rid cicada.RecordID) bool {
			if key != next {
				bad = fmt.Errorf("row %d of the scan has key %d, want %d", n, key, next)
				return false
			}
			d, err := tx.Read(q.tbl, rid)
			if err != nil {
				bad = fmt.Errorf("read row %d: %w", key, err)
				return false
			}
			if got := binary.LittleEndian.Uint64(d); got != key {
				bad = fmt.Errorf("key %d holds row %d", key, got)
				return false
			}
			next++
			n++
			return true
		})
	})
	switch {
	case err != nil:
		return fmt.Errorf("verify scan: %w", err)
	case bad != nil:
		return fmt.Errorf("verify: %w", bad)
	case n != queueRows || next != q.tail:
		return fmt.Errorf("verify: %d live rows ending at key %d, want %d ending at %d", n, next-1, queueRows, q.tail-1)
	}
	return nil
}

type queueInst struct {
	q      *queueDB
	stats0 cicada.Stats
}

func setupQueue(o runOpts) (instance, error) {
	q := openQueue()
	if err := q.load(); err != nil {
		return nil, err
	}
	for i := 0; i < warmupTxns; i++ {
		if err := q.run(nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return &queueInst{q: q}, nil
}

func (in *queueInst) load(o runOpts) loadResult {
	in.stats0 = in.q.db.Stats()
	return runLoad(loadPlan{gens: 1, ramp: rampTime, window: o.window, tracer: o.tracer}, func(r *runner, g *loadGen) {
		r.closedLoop(g, in.q.run)
	})
}

func (in *queueInst) liveBytes() uint64 { return queueRows * queueRowSize }

func (in *queueInst) finish(o runOpts, lr *loadResult, out *outcome) error {
	if err := in.q.checkQueue(); err != nil {
		return err
	}
	if o.traced() {
		coreMetrics(in.q.db, in.stats0, o, out)
	}
	return nil
}

func (in *queueInst) close() {}
