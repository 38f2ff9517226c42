package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls into
// each layer's public functions; nothing inside the engine is edited. One
// transaction in traceSampleEvery is traced: its spans share a txn id, nest
// strictly (txn → exec attempt → index/read/update call), are kept in memory
// per load goroutine, and are written as Chrome trace-event JSON at exit.

type spanKind uint8

const (
	spTxn spanKind = iota
	spExec
	spHashGet
	spRead
	spUpdate
	spInsert
	spDelete
	spBTreeGet
	spBTreeInsert
	spBTreeDelete
	spBTreeScan
	spWALFlush
	spWALCheckpoint
	spRecover
	spClientBuild
	spClientExec
	spClientPing
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"txn", "exec", "index.hash_get", "read", "update", "insert", "delete",
	"index.btree_get", "index.btree_insert", "index.btree_delete", "index.btree_scan",
	"wal.flush", "wal.checkpoint", "recover", "client.build", "client.exec", "client.ping",
}

const (
	traceSampleEvery = 64
	// maxStoredSpans bounds one goroutine's exported spans (≈ 6 MB); the
	// per-kind aggregates below keep counting after the store is full.
	maxStoredSpans = 1 << 17
	maxSpanDepth   = 8
)

type span struct {
	kind       spanKind
	depth      uint8
	txn        uint64
	start, end int64 // ns since the tracer's epoch
}

type spanAgg struct {
	n     uint64
	total int64 // ns, children included
	self  int64 // ns, total minus the part child spans cover
}

type openSpan struct {
	kind     spanKind
	start    int64
	children int64
	stored   int // index in spans, or -1 when the store is full
}

// tracer owns the on/off switch and the epoch; each load goroutine records
// into its own spanBuf, so recording needs no synchronization.
type tracer struct {
	enabled atomic.Bool
	epoch   time.Time
	bufs    []*spanBuf
	main    *spanBuf // the coordinating goroutine's buffer
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.main = t.buf()
	return t
}

// span begins a span on the coordinating goroutine, whatever the sampling
// switch says: for the rare long operations outside the load phase
// (wal.flush, recover, client.ping). Nil-safe like every recording method.
func (t *tracer) span(k spanKind) *spanBuf {
	if t == nil {
		return nil
	}
	t.main.seq++
	t.main.txn = uint64(t.main.tid)<<48 | t.main.seq
	t.main.begin(k)
	return t.main
}

// buf adds a span buffer for one goroutine; call before the goroutines run.
func (t *tracer) buf() *spanBuf {
	b := &spanBuf{t: t, tid: len(t.bufs) + 1}
	t.bufs = append(t.bufs, b)
	return b
}

type spanBuf struct {
	t       *tracer
	tid     int
	seq     uint64 // transactions seen; every traceSampleEvery-th is traced
	txn     uint64
	spans   []span
	dropped uint64
	agg     [numSpanKinds]spanAgg
	stack   [maxSpanDepth]openSpan
	depth   int
}

// sample decides whether the next transaction is traced. It returns the
// buffer to record into, or nil — and every recording method is a no-op on a
// nil buffer, so untraced transactions pay one branch per call site.
func (b *spanBuf) sample() *spanBuf {
	if b == nil || !b.t.enabled.Load() {
		return nil
	}
	b.seq++
	if b.seq%traceSampleEvery != 0 {
		return nil
	}
	b.txn = uint64(b.tid)<<48 | b.seq
	return b
}

func (b *spanBuf) begin(k spanKind) {
	if b == nil || b.depth == maxSpanDepth {
		return
	}
	now := int64(time.Since(b.t.epoch))
	stored := -1
	if len(b.spans) < maxStoredSpans {
		stored = len(b.spans)
		b.spans = append(b.spans, span{kind: k, depth: uint8(b.depth), txn: b.txn, start: now})
	} else {
		b.dropped++
	}
	b.stack[b.depth] = openSpan{kind: k, start: now, stored: stored}
	b.depth++
}

func (b *spanBuf) end() {
	if b == nil || b.depth == 0 {
		return
	}
	now := int64(time.Since(b.t.epoch))
	b.depth--
	o := &b.stack[b.depth]
	d := now - o.start
	a := &b.agg[o.kind]
	a.n++
	a.total += d
	a.self += d - o.children
	if o.stored >= 0 {
		b.spans[o.stored].end = now
	}
	if b.depth > 0 {
		b.stack[b.depth-1].children += d
	}
}

// totals merges every buffer's aggregates. Call after the goroutines stop.
func (t *tracer) totals() (agg [numSpanKinds]spanAgg, stored int, dropped uint64) {
	for _, b := range t.bufs {
		for k := range agg {
			agg[k].n += b.agg[k].n
			agg[k].total += b.agg[k].total
			agg[k].self += b.agg[k].self
		}
		stored += len(b.spans)
		dropped += b.dropped
	}
	return
}

// meanNs is the mean duration of one kind of span, 0 when none was recorded.
func (a spanAgg) meanNs() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.total) / float64(a.n)
}

// writeChrome writes the stored spans as Chrome trace-event JSON (load it in
// Perfetto or chrome://tracing). Spans of one transaction share args.txn;
// nesting gives the causing span, as complete ("X") events on one tid nest
// by time.
func (t *tracer) writeChrome(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, b := range t.bufs {
		for i := range b.spans {
			s := &b.spans[i]
			if s.end == 0 {
				continue // still open when the goroutine stopped
			}
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"txn":%d,"depth":%d}}`,
				spanNames[s.kind], b.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.txn, s.depth)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}
