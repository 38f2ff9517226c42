package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"cicada"
	"cicada/internal/core"
	"cicada/internal/index"
)

// The layer ladder (ROADMAP 1c/1d): the identical transaction — ladderTxn: 4
// requests, half RMW, uniform over 100 k × 64 B, one worker or connection —
// timed at core.Worker, at cicada.Worker.Run, with a WAL attached, and
// through client.Txn.Exec over loopback TCP. The difference between two
// rungs is the outer layer's price in ns and allocations per transaction.

const (
	rungTime   = 3 * time.Second
	rungWarmup = 300 * time.Millisecond
	emptyTime  = 500 * time.Millisecond
)

// timeRung runs do in a closed loop, first for rungWarmup untimed and then
// for d, and returns the mean wall time and heap allocations per call.
func timeRung(d time.Duration, do func() error) (nsPer, allocsPer float64, err error) {
	loop := func(d time.Duration) (n uint64, elapsed time.Duration, err error) {
		t0 := time.Now()
		for {
			// The clock is read once per 64 calls so the loop times do, not time.Now.
			for i := 0; i < 64; i++ {
				if err := do(); err != nil {
					return n, time.Since(t0), err
				}
			}
			n += 64
			if elapsed = time.Since(t0); elapsed >= d {
				return n, elapsed, nil
			}
		}
	}
	if _, _, err := loop(rungWarmup); err != nil {
		return 0, 0, err
	}
	m0 := mallocs()
	n, elapsed, err := loop(d)
	if err != nil {
		return 0, 0, err
	}
	return float64(elapsed) / float64(n), float64(mallocs()-m0) / float64(n), nil
}

// coreRung is ladderTxn written against internal/core and internal/index
// directly, below the public API's wrappers.
type coreRung struct {
	w    *core.Worker
	tbl  *core.Table
	idx  *index.MVHash
	keys *keyGen
	mix  *rng
	key  [srvStmts]uint64
	rmw  [srvStmts]bool
	fn   func(*core.Txn) error
	sink uint64
}

func newCoreRung(seed uint64) (*coreRung, error) {
	p := ladderTxn
	eng := core.NewEngine(core.DefaultOptions(1))
	c := &coreRung{
		w:    eng.Worker(0),
		tbl:  eng.CreateTable("usertable"),
		idx:  index.NewMVHash(eng, "__idx_usertable_key", p.records, true),
		keys: newKeyGen(streamSeed(seed, 0), uint64(p.records), 0),
		mix:  newRNG(streamSeed(seed, 1)),
	}
	c.fn = c.exec
	for lo := 0; lo < p.records; lo += loadBatch {
		err := c.w.Run(func(tx *core.Txn) error {
			for k := lo; k < min(lo+loadBatch, p.records); k++ {
				rid, buf, err := tx.Insert(c.tbl, p.recordSize)
				if err != nil {
					return err
				}
				fillRecord(buf, uint64(k))
				if err := c.idx.Insert(tx, uint64(k), rid); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("core rung load: %w", err)
		}
	}
	return c, nil
}

func (c *coreRung) txn() error {
	for i := range c.key {
		c.key[i] = c.keys.next()
		c.rmw[i] = c.mix.float64() < ladderTxn.rmwFrac
	}
	return c.w.Run(c.fn)
}

func (c *coreRung) exec(tx *core.Txn) error {
	for i, key := range c.key {
		rid, err := c.idx.Get(tx, key)
		if err != nil {
			return err
		}
		if c.rmw[i] {
			buf, err := tx.Update(c.tbl, rid, -1)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)+1)
		} else {
			d, err := tx.Read(c.tbl, rid)
			if err != nil {
				return err
			}
			c.sink += uint64(d[len(d)-1])
		}
	}
	return nil
}

// runLadder times the four rungs and the empty-transaction floor and
// records them, with the two derived prices (wal.stage_ns_per_txn and, when
// the workload measured an exec RTT, server.handoff_us).
func runLadder(o runOpts, out *outcome) error {
	set := func(rung string, do func() error) error {
		settle()
		ns, allocs, err := timeRung(rungTime, do)
		if err != nil {
			return fmt.Errorf("ladder %s rung: %w", rung, err)
		}
		out.set("ladder."+rung+"_ns_per_txn", ns)
		out.set("ladder."+rung+"_allocs_per_txn", allocs)
		return nil
	}

	c, err := newCoreRung(o.seed)
	if err != nil {
		return err
	}
	if err := set("core", c.txn); err != nil {
		return err
	}

	api := func(y *ycsbDB) func() error {
		g := y.newGen(0, o.seed)
		return func() error { g.next(); return g.run(nil) }
	}
	y := openYCSB(ladderTxn, false)
	if err := y.load(); err != nil {
		return fmt.Errorf("api rung load: %w", err)
	}
	if err := set("api", api(y)); err != nil {
		return err
	}
	empty := func(*cicada.Txn) error { return nil }
	w := y.db.Worker(0)
	ns, _, err := timeRung(emptyTime, func() error { return w.RunReadOnly(empty) })
	if err != nil {
		return fmt.Errorf("empty transaction: %w", err)
	}
	out.set("core.empty_txn_ns", ns)

	dir, err := os.MkdirTemp("", "cicada-bench-ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	yw := openYCSB(ladderTxn, false)
	wal, err := yw.db.AttachWAL(cicada.WALConfig{Dir: dir})
	if err != nil {
		return fmt.Errorf("wal rung: %w", err)
	}
	err = yw.load()
	if err == nil {
		err = set("wal", api(yw))
	}
	if cerr := wal.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal rung close: %w", cerr)
	}
	if err != nil {
		return err
	}

	inst, err := setupServer(0)(runOpts{seed: o.seed, window: o.window})
	if err != nil {
		return fmt.Errorf("tcp rung: %w", err)
	}
	s := inst.(*serverInst)
	err = set("tcp", func() error { return s.gens[0].txn(nil) })
	s.close()
	if err != nil {
		return err
	}

	l := out.PerLayer
	out.set("wal.stage_ns_per_txn", l["ladder.wal_ns_per_txn"]-l["ladder.api_ns_per_txn"])
	if rtt := l["server.exec_rtt_us"]; rtt > 0 {
		out.set("server.handoff_us", rtt-l["server.ping_rtt_us"]-l["ladder.api_ns_per_txn"]/1e3)
	}
	return nil
}

// coreMetrics records what the spans and the engine's own counters say about
// the core and index layers over the load phase that began at s0.
func coreMetrics(db *cicada.DB, s0 cicada.Stats, o runOpts, out *outcome) {
	s1 := db.Stats()
	commits, aborts := s1.Commits-s0.Commits, s1.Aborts-s0.Aborts
	out.set("core.retries_per_txn", ratio(aborts, commits))
	out.set("core.abort_frac", ratio(aborts, aborts+commits))
	if busy := s1.BusyTime - s0.BusyTime; busy > 0 {
		out.set("core.abort_time_frac", float64(s1.AbortTime-s0.AbortTime)/float64(busy))
	}
	out.set("core.max_backoff_us", float64(db.MaxBackoff())/1e3)
	out.set("core.gc_space_overhead", db.SpaceOverhead())

	agg, _, _ := o.tracer.totals()
	if n := agg[spTxn].n; n > 0 && agg[spExec].n > 0 {
		out.set("core.exec_us", float64(agg[spExec].total)/float64(n)/1e3)
		// Run minus its callbacks: begin + validate + install + backoff.
		out.set("core.commit_self_us", float64(agg[spTxn].self)/float64(n)/1e3)
	}
	for kind, name := range map[spanKind]string{
		spRead: "core.read_ns", spUpdate: "core.update_ns", spInsert: "core.insert_ns", spDelete: "core.delete_ns",
		spHashGet: "index.hash_get_ns", spBTreeGet: "index.btree_get_ns",
		spBTreeInsert: "index.btree_insert_ns", spBTreeDelete: "index.btree_delete_ns",
	} {
		out.set(name, agg[kind].meanNs())
	}
	if sc := agg[spBTreeScan]; sc.n > 0 {
		// The scan's self time (its row reads are child spans) per row.
		out.set("index.btree_scan_ns_per_row", float64(sc.self)/float64(sc.n*queueScanRows))
	}
}
