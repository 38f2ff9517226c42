package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"cicada"
)

// embed_durable: the YCSB table with a write-ahead log attached (default
// WALConfig: 1 ms group commit, real fsync), a logged load, then fixed work
// so the log volume is the same every run, then Flush and Recover into a
// fresh DB whose full-table checksum must equal the live DB's.

type durableInst struct {
	ycsbInst
	wal       *cicada.WAL
	dir       string
	setupSize int64 // bytes in the log directory when set-up finished
	perWorker uint64
	fsync0    float64 // wal_fsyncs_total when the load phase began (traced run)
}

// setupDurable opens the table with a WAL in a fresh directory under
// os.TempDir() (run.sh points TMPDIR inside the checkout), loads it with
// logging on, and ends with a Flush so the load is durable before the clock
// on the fixed work starts.
func setupDurable(p ycsbParams, perWorker uint64) func(o runOpts) (instance, error) {
	return func(o runOpts) (instance, error) {
		dir, err := os.MkdirTemp("", "cicada-bench-wal-")
		if err != nil {
			return nil, err
		}
		d := &durableInst{dir: dir, perWorker: perWorker}
		d.y = openYCSB(p, o.traced()) // telemetry (wal_fsyncs_total) only in the traced run
		if d.wal, err = d.y.db.AttachWAL(cicada.WALConfig{Dir: dir}); err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("attach WAL: %w", err)
		}
		if err := d.prepare(o); err != nil {
			d.close()
			return nil, err
		}
		if err := d.wal.Flush(); err != nil {
			d.close()
			return nil, fmt.Errorf("flush after load: %w", err)
		}
		d.setupSize, err = dirBytes(dir)
		if err != nil {
			d.close()
			return nil, err
		}
		return d, nil
	}
}

func (d *durableInst) load(o runOpts) loadResult {
	// No ramp: the work is fixed, and warm-up was part of set-up. The
	// window only clocks the slices whose rates are printed as min/max.
	d.fsync0 = d.y.db.MetricValues()["wal_fsyncs_total"]
	return d.ycsbInst.run(loadPlan{gens: d.y.p.workers, window: o.window, perGenWork: scaleWork(d.perWorker, o.window), tracer: o.tracer})
}

// scaleWork keeps the fixed work proportional to --seconds, so the frozen
// count is "per run_seconds" and a shorter smoke run stays short.
func scaleWork(perWorker uint64, window time.Duration) uint64 {
	return uint64(float64(perWorker) * window.Seconds() / defaultRunSeconds)
}

func (d *durableInst) finish(o runOpts, lr *loadResult, out *outcome) error {
	p := d.y.p
	if lr.elapsed > 0 && !o.traced() {
		// Fixed work ÷ elapsed replaces the sub-window median.
		out.set("txn_per_s", float64(lr.commits)/lr.elapsed.Seconds())
	}
	fsyncs := d.y.db.MetricValues()["wal_fsyncs_total"] - d.fsync0

	t0 := time.Now()
	sp := o.tracer.span(spWALFlush)
	err := d.wal.Flush()
	sp.end()
	flush := time.Since(t0)
	if err != nil {
		return fmt.Errorf("final flush: %w", err)
	}
	size, err := dirBytes(d.dir)
	if err != nil {
		return err
	}
	sum, err := d.y.sumCounters()
	if err != nil {
		return err
	}
	if err := checkCounters(sum, d.committedRMW()); err != nil {
		return err
	}
	liveN, liveSum, err := d.y.tableChecksum()
	if err != nil {
		return err
	}

	// Recover reads the directory while the WAL is still open — nothing has
	// been staged since the Flush, so the files are final — which leaves
	// the live WAL free for the traced run's one Checkpoint afterwards,
	// where it cannot change what Recover replays.
	rec := openYCSB(p, false)
	t0 = time.Now()
	sp = o.tracer.span(spRecover)
	st, err := rec.db.Recover(d.dir)
	sp.end()
	recover := time.Since(t0)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	recN, recSum, err := rec.tableChecksum()
	if err != nil {
		return fmt.Errorf("recovered DB: %w", err)
	}
	if err := checkChecksum(liveN, liveSum, recN, recSum); err != nil {
		return err
	}
	if o.traced() {
		userBytes := float64(p.records*p.recordSize) + float64(d.committedRMW())*float64(p.recordSize)
		out.set("wal.bytes_per_user_byte", float64(size)/userBytes)
		out.set("wal.recover_s", recover.Seconds())
		out.set("wal.recover_records_per_s", float64(st.RedoRecords)/recover.Seconds())
		out.set("wal.flush_barrier_ms", float64(flush)/1e6)
		out.set("wal.recovered_index_missing", float64(rec.missingKeys()))
		if lr.commits > 0 {
			out.set("wal.bytes_per_txn", float64(size-d.setupSize)/float64(lr.commits))
			out.set("wal.fsync_per_txn", fsyncs/float64(lr.commits))
		}
		t0 = time.Now()
		sp = o.tracer.span(spWALCheckpoint)
		err := d.wal.Checkpoint()
		sp.end()
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		out.set("wal.checkpoint_s", time.Since(t0).Seconds())
		d.layerMetrics(o, lr, out)
	}
	err = d.wal.Close()
	d.wal = nil
	if err != nil {
		return fmt.Errorf("close WAL: %w", err)
	}
	return nil
}

func (d *durableInst) close() {
	if d.wal != nil {
		d.wal.Close() // error dropped: the directory is deleted next
	}
	os.RemoveAll(d.dir)
}

// checkChecksum is the durability oracle: the recovered table must equal the
// live table as it stood after the final Flush.
func checkChecksum(liveN int, live uint64, recN int, recovered uint64) error {
	if liveN != recN || live != recovered {
		return fmt.Errorf("recovered table (%d records, checksum %#x) != live table (%d records, checksum %#x)", recN, recovered, liveN, live)
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// missingKeys counts the keys the index cannot find. On a recovered DB it is
// the size of a seed defect (README.md, "Known failures at seed": index
// bucket updates of the logged load that committed without being logged),
// which is why the recovery oracle reads the table by record ID.
func (y *ycsbDB) missingKeys() (n int) {
	w := y.db.Worker(0)
	for k := 0; k < y.p.records; k++ {
		err := w.Run(func(tx *cicada.Txn) error {
			_, err := y.idx.Get(tx, uint64(k))
			return err
		})
		if err != nil {
			n++
		}
	}
	return n
}
