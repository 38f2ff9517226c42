package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"cicada"
)

// The YCSB-shaped table behind workloads embed_read_uniform,
// embed_write_skew and embed_durable and behind the ladder's api and wal
// rungs: fixed-size records reached through a unique hash index. Bytes 0–7
// of a record are a counter every RMW request increments (the verification
// oracle), bytes 8–15 the key, the rest filler.

type ycsbParams struct {
	workers    int
	records    int
	recordSize int
	reqs       int     // requests per transaction
	rmwFrac    float64 // share of requests that are read-modify-write
	theta      float64 // Zipf skew; 0 = uniform
	// distinct redraws a key already in the transaction. embed_durable sets
	// it: reading and then updating one record in one transaction can commit
	// without being logged at the seed (README.md, "Known failures at
	// seed"), which would fail the recovery check about once in a few runs.
	distinct bool
}

const (
	loadBatch   = 100    // records per load transaction
	warmupTxns  = 20_000 // per worker, part of set-up
	verifyBatch = 1_000  // records per verification transaction
)

type ycsbDB struct {
	p    ycsbParams
	db   *cicada.DB
	tbl  *cicada.Table
	idx  *cicada.HashIndex
	keys *keyGen // distribution template; generators fork it
}

func openYCSB(p ycsbParams, telemetry bool) *ycsbDB {
	cfg := cicada.DefaultConfig(p.workers)
	cfg.Telemetry = telemetry
	db := cicada.Open(cfg)
	return &ycsbDB{
		p:    p,
		db:   db,
		tbl:  db.CreateTable("usertable"),
		idx:  db.CreateHashIndex("usertable_key", p.records, true),
		keys: newKeyGen(0, uint64(p.records), p.theta),
	}
}

// load inserts every record, the workers taking alternate batches.
func (y *ycsbDB) load() error {
	errs := make([]error, y.p.workers)
	var wg sync.WaitGroup
	for id := 0; id < y.p.workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := y.db.Worker(id)
			for lo := id * loadBatch; lo < y.p.records; lo += y.p.workers * loadBatch {
				hi := min(lo+loadBatch, y.p.records)
				err := w.Run(func(tx *cicada.Txn) error {
					for k := lo; k < hi; k++ {
						rid, buf, err := tx.Insert(y.tbl, y.p.recordSize)
						if err != nil {
							return err
						}
						fillRecord(buf, uint64(k))
						if err := y.idx.Insert(tx, uint64(k), rid); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					errs[id] = fmt.Errorf("load batch at key %d: %w", lo, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func fillRecord(buf []byte, key uint64) {
	binary.LittleEndian.PutUint64(buf, 0)
	binary.LittleEndian.PutUint64(buf[8:], key)
	for i := 16; i < len(buf); i++ {
		buf[i] = byte(key)
	}
}

// ycsbGen is one worker's request generator and transaction body. The
// request vector is drawn before the transaction begins, so conflict
// retries replay identical requests, and fn is bound once so issuing a
// transaction allocates nothing on the benchmark's side.
type ycsbGen struct {
	y    *ycsbDB
	w    *cicada.Worker
	keys *keyGen
	mix  *rng
	key  []uint64
	rmw  []bool
	nRMW uint64
	// spurious counts ErrNotFound results on loaded keys that a retry of
	// the whole transaction cured (see run).
	spurious uint64
	tr       *spanBuf
	fn       func(*cicada.Txn) error
	sink     uint64 // reads feed this so they cannot be optimized away
}

func (y *ycsbDB) newGen(worker int, seed uint64) *ycsbGen {
	g := &ycsbGen{
		y:    y,
		w:    y.db.Worker(worker),
		keys: y.keys.fork(streamSeed(seed, 2*worker)),
		mix:  newRNG(streamSeed(seed, 2*worker+1)),
		key:  make([]uint64, y.p.reqs),
		rmw:  make([]bool, y.p.reqs),
	}
	g.fn = g.exec
	return g
}

// next draws the next transaction's requests.
func (g *ycsbGen) next() {
	g.nRMW = 0
	for i := range g.key {
		g.key[i] = g.keys.next()
		for g.y.p.distinct && contains(g.key[:i], g.key[i]) {
			g.key[i] = g.keys.next()
		}
		g.rmw[i] = g.mix.float64() < g.y.p.rmwFrac
		if g.rmw[i] {
			g.nRMW++
		}
	}
}

func contains(keys []uint64, k uint64) bool {
	for _, x := range keys {
		if x == k {
			return true
		}
	}
	return false
}

// spuriousRetries bounds how often run retries a transaction that failed
// with ErrNotFound. Every key is loaded and none is ever deleted, so the
// error is the seed defect recorded in README.md ("Known failures at seed"):
// under skew a reader occasionally finds no visible version of a hot record.
// A caller's only remedy is to run the transaction again, so run does, and
// the cured cases are reported as core.spurious_notfound_per_mtxn instead of
// as failed operations; one that persists is a failed operation.
const spuriousRetries = 3

// run executes the drawn transaction; conflicts are retried inside
// Worker.Run.
func (g *ycsbGen) run(tr *spanBuf) error {
	g.tr = tr
	for attempt := 0; ; attempt++ {
		err := g.w.Run(g.fn)
		if err == nil || attempt == spuriousRetries || !errors.Is(err, cicada.ErrNotFound) {
			return err
		}
		g.spurious++
	}
}

func (g *ycsbGen) exec(tx *cicada.Txn) error {
	tr := g.tr
	tr.begin(spExec)
	err := g.requests(tx, tr)
	tr.end()
	return err
}

func (g *ycsbGen) requests(tx *cicada.Txn, tr *spanBuf) error {
	y := g.y
	for i, key := range g.key {
		tr.begin(spHashGet)
		rid, err := y.idx.Get(tx, key)
		tr.end()
		if err != nil {
			return fmt.Errorf("index get key %d: %w", key, err)
		}
		if g.rmw[i] {
			tr.begin(spUpdate)
			buf, err := tx.Update(y.tbl, rid, -1)
			tr.end()
			if err != nil {
				return fmt.Errorf("update key %d: %w", key, err)
			}
			binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)+1)
		} else {
			tr.begin(spRead)
			d, err := tx.Read(y.tbl, rid)
			tr.end()
			if err != nil {
				return fmt.Errorf("read key %d: %w", key, err)
			}
			g.sink += uint64(d[len(d)-1])
		}
	}
	return nil
}

// warmup runs warmupTxns transactions per worker so caches, the heat tables
// and the backoff regulator are past their cold start before the ramp. It
// returns the RMW requests it committed, which the counter check includes,
// and the first error of a transaction that did not commit.
func (y *ycsbDB) warmup(seed uint64) (rmw uint64, err error) {
	counts := make([]uint64, y.p.workers)
	errs := make([]error, y.p.workers)
	var wg sync.WaitGroup
	for id := 0; id < y.p.workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g := y.newGen(id, seed^0x77a7)
			for i := 0; i < warmupTxns; i++ {
				g.next()
				if err := g.run(nil); err != nil {
					if errs[id] == nil {
						errs[id] = fmt.Errorf("warm-up: %w", err)
					}
					continue
				}
				counts[id] += g.nRMW
			}
		}(id)
	}
	wg.Wait()
	for _, c := range counts {
		rmw += c
	}
	return rmw, errors.Join(errs...)
}

// sumCounters reads every record through the index on worker 0 (with all
// other workers stopped) and returns the sum of the RMW counters.
func (y *ycsbDB) sumCounters() (sum uint64, err error) {
	w := y.db.Worker(0)
	for lo := 0; lo < y.p.records; lo += verifyBatch {
		hi := min(lo+verifyBatch, y.p.records)
		var batchSum uint64
		err := w.Run(func(tx *cicada.Txn) error {
			batchSum = 0
			for k := lo; k < hi; k++ {
				rid, err := y.idx.Get(tx, uint64(k))
				if err != nil {
					return fmt.Errorf("verify: index get key %d: %w", k, err)
				}
				d, err := tx.Read(y.tbl, rid)
				if err != nil {
					return fmt.Errorf("verify: read key %d: %w", k, err)
				}
				if len(d) != y.p.recordSize || binary.LittleEndian.Uint64(d[8:]) != uint64(k) {
					return fmt.Errorf("verify: key %d holds a record of %d bytes for key %d", k, len(d), binary.LittleEndian.Uint64(d[8:]))
				}
				batchSum += binary.LittleEndian.Uint64(d)
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		sum += batchSum
	}
	return sum, nil
}

// tableChecksum reads the whole user table by record ID — not through the
// index, so it checks exactly the table's contents — and returns the number
// of live records and a checksum over their bytes.
func (y *ycsbDB) tableChecksum() (records int, checksum uint64, err error) {
	w := y.db.Worker(0)
	capacity := y.db.Engine().TableByName(y.tbl.Name()).Storage().Cap()
	for lo := uint64(0); lo < capacity; lo += verifyBatch {
		hi := min(lo+verifyBatch, capacity)
		var n int
		var sum uint64
		err := w.Run(func(tx *cicada.Txn) error {
			n, sum = 0, 0
			for rid := lo; rid < hi; rid++ {
				d, err := tx.Read(y.tbl, cicada.RecordID(rid))
				if errors.Is(err, cicada.ErrNotFound) {
					continue
				}
				if err != nil {
					return fmt.Errorf("verify: read record %d: %w", rid, err)
				}
				n++
				sum += recordHash(d)
			}
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		records += n
		checksum += sum
	}
	return records, checksum, nil
}

// recordHash is FNV-1a over the record bytes (which hold the key); per-record
// hashes are summed, so the table checksum does not depend on record IDs.
func recordHash(d []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range d {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// checkCounters is the RMW oracle: the counters must sum to exactly the
// number of RMW requests in committed transactions.
func checkCounters(sum, committedRMW uint64) error {
	if sum != committedRMW {
		return fmt.Errorf("counter sum %d != committed RMW requests %d (lost or phantom update)", sum, committedRMW)
	}
	return nil
}

// ycsbInst is a set-up YCSB table: workloads embed_read_uniform and
// embed_write_skew as it stands, embed_durable with a WAL around it.
type ycsbInst struct {
	y        *ycsbDB
	seed     uint64
	warmRMW  uint64 // RMW requests committed by warm-up
	ranRMW   uint64 // RMW requests committed by the load phase
	spurious uint64
	stats0   cicada.Stats // engine counters when the load phase began
	// Set-up measurements for the storage.* layer metrics (traced run only:
	// the heap reading needs a full GC that setup_s should not pay for).
	loadRate      float64
	heapPerRecord float64
}

func setupYCSB(p ycsbParams) func(o runOpts) (instance, error) {
	return func(o runOpts) (instance, error) {
		inst := &ycsbInst{y: openYCSB(p, false)}
		if err := inst.prepare(o); err != nil {
			return nil, err
		}
		return inst, nil
	}
}

// prepare loads and warms the table.
func (in *ycsbInst) prepare(o runOpts) error {
	in.seed = o.seed
	var heap0 uint64
	if o.traced() {
		heap0 = heapInuseAfterGC()
	}
	t0 := time.Now()
	if err := in.y.load(); err != nil {
		return err
	}
	in.loadRate = float64(in.y.p.records) / time.Since(t0).Seconds()
	if o.traced() {
		in.heapPerRecord = float64(heapInuseAfterGC()-heap0) / float64(in.y.p.records)
	}
	var err error
	in.warmRMW, err = in.y.warmup(o.seed)
	return err
}

func (in *ycsbInst) load(o runOpts) loadResult {
	return in.run(loadPlan{gens: in.y.p.workers, ramp: rampTime, window: o.window, tracer: o.tracer})
}

func (in *ycsbInst) run(plan loadPlan) loadResult {
	gens := make([]*ycsbGen, plan.gens)
	for i := range gens {
		gens[i] = in.y.newGen(i, in.seed)
	}
	in.stats0 = in.y.db.Stats()
	lr := runLoad(plan, func(r *runner, g *loadGen) {
		yg := gens[g.id]
		r.closedLoop(g, func(tr *spanBuf) error {
			yg.next()
			if err := yg.run(tr); err != nil {
				return err
			}
			g.work.Add(yg.nRMW)
			return nil
		})
	})
	in.ranRMW = lr.work
	if lr.hung == "" {
		for _, yg := range gens {
			in.spurious += yg.spurious
		}
	}
	return lr
}

func (in *ycsbInst) committedRMW() uint64 { return in.warmRMW + in.ranRMW }

func (in *ycsbInst) liveBytes() uint64 { return uint64(in.y.p.records * in.y.p.recordSize) }

func (in *ycsbInst) finish(o runOpts, lr *loadResult, out *outcome) error {
	sum, err := in.y.sumCounters()
	if err != nil {
		return err
	}
	if err := checkCounters(sum, in.committedRMW()); err != nil {
		return err
	}
	if o.traced() {
		in.layerMetrics(o, lr, out)
	}
	return nil
}

// layerMetrics records what the spans and the engine's own counters say
// about the core, index and storage layers under this workload.
func (in *ycsbInst) layerMetrics(o runOpts, lr *loadResult, out *outcome) {
	coreMetrics(in.y.db, in.stats0, o, out)
	out.set("core.spurious_notfound_per_mtxn", perMillion(in.spurious, lr.attempted))
	out.set("storage.load_records_per_s", in.loadRate)
	out.set("storage.heap_bytes_per_record", in.heapPerRecord)
}

func (in *ycsbInst) close() {}
