package index

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cicada/internal/core"
	"cicada/internal/storage"
)

// Tests for the B+-tree's node lifecycle: emptied leaves are freed, the dead
// spine above them is pruned, the root collapses, and nothing a reader or an
// aborted transaction can observe changes.

// treeShape is what checkTree learns from its walk.
type treeShape struct {
	height int // levels, a lone root leaf being 1; 0 for a tree never written
	nodes  int
	pairs  int
}

// checkTree walks the whole tree inside one transaction and fails the test
// on a broken structural invariant: separators strictly ascending and
// bounding their children's keys, child count = n + 1 with the unused slots
// zero, leaves sorted, all at one depth, (bar a root leaf) non-empty and
// chained left to right, an internal root with at least two children, no
// reachable freed node, and no live node record that is unreachable.
func checkTree(tb testing.TB, tr *MVBTree, w *core.Worker) treeShape {
	tb.Helper()
	var sh treeShape
	err := w.Run(func(tx *core.Txn) error {
		sh = treeShape{}
		root, ok, err := tr.root(tx)
		if err != nil || !ok {
			return err
		}
		reach := map[storage.RecordID]bool{}
		leafDepth := 0
		var chain []storage.RecordID // the leaf each leaf links to, left to right
		var walk func(rid storage.RecordID, depth int, lo, hi *[2]uint64) error
		walk = func(rid storage.RecordID, depth int, lo, hi *[2]uint64) error {
			if reach[rid] {
				return fmt.Errorf("node %d reachable twice", rid)
			}
			reach[rid] = true
			b, err := tx.Read(tr.tbl, rid)
			if err != nil {
				return fmt.Errorf("reachable node %d: %w", rid, err)
			}
			if len(b) != nodeSize {
				return fmt.Errorf("node %d is %d bytes", rid, len(b))
			}
			n := nodeN(b)
			inRange := func(k, v uint64) bool {
				return (lo == nil || cmpKV(k, v, lo[0], lo[1]) >= 0) && (hi == nil || cmpKV(k, v, hi[0], hi[1]) < 0)
			}
			if nodeIsLeaf(b) {
				if leafDepth == 0 {
					leafDepth = depth
				}
				if depth != leafDepth {
					return fmt.Errorf("leaf %d at depth %d, others at %d", rid, depth, leafDepth)
				}
				if n > leafCap || (n == 0 && depth > 1) {
					return fmt.Errorf("leaf %d holds %d pairs", rid, n)
				}
				for i := 0; i < n; i++ {
					k, v := leafPair(b, i)
					if !inRange(k, v) {
						return fmt.Errorf("leaf %d pair (%d,%d) outside its separators", rid, k, v)
					}
					if i > 0 {
						if pk, pv := leafPair(b, i-1); cmpKV(pk, pv, k, v) >= 0 {
							return fmt.Errorf("leaf %d pairs out of order at %d", rid, i)
						}
					}
				}
				if !bytes.Equal(b[10+n*16:], make([]byte, nodeSize-10-n*16)) {
					return fmt.Errorf("leaf %d has bytes set past its %d pairs", rid, n)
				}
				if len(chain) > 0 && chain[len(chain)-1] != rid {
					return fmt.Errorf("leaf left of %d links to %d", rid, chain[len(chain)-1])
				}
				next, ok := leafNext(b)
				if !ok {
					next = storage.InvalidRecordID
				}
				chain = append(chain, next)
				sh.pairs += n
				return nil
			}
			if b[0] != 0 || n > intCap || (n == 0 && depth == 1) {
				return fmt.Errorf("internal node %d: flag %d, %d separators at depth %d", rid, b[0], n, depth)
			}
			if !bytes.Equal(b[2+(n+1)*8:74], make([]byte, 72-(n+1)*8)) || !bytes.Equal(b[74+n*16:], make([]byte, (intCap-n)*16)) {
				return fmt.Errorf("internal node %d has bytes set past its %d separators", rid, n)
			}
			for i := 0; i <= n; i++ {
				clo, chi := lo, hi
				if i > 0 {
					k, v := intSep(b, i-1)
					if !inRange(k, v) || (lo != nil && cmpKV(k, v, lo[0], lo[1]) == 0) {
						return fmt.Errorf("node %d separator %d (%d,%d) out of order", rid, i-1, k, v)
					}
					clo = &[2]uint64{k, v}
				}
				if i < n {
					k, v := intSep(b, i)
					chi = &[2]uint64{k, v}
				}
				if childIsNil(b, i) {
					return fmt.Errorf("node %d child %d of %d is nil", rid, i, n+1)
				}
				if err := walk(intChild(b, i), depth+1, clo, chi); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(root, 1, nil, nil); err != nil {
			return err
		}
		if last := chain[len(chain)-1]; last != storage.InvalidRecordID {
			return fmt.Errorf("rightmost leaf links to %d", last)
		}
		sh.height, sh.nodes = leafDepth, len(reach)
		for rid := storage.RecordID(0); uint64(rid) < tr.tbl.Storage().Cap(); rid++ {
			if rid == tr.meta || reach[rid] {
				continue
			}
			if _, err := tx.Read(tr.tbl, rid); !errors.Is(err, core.ErrNotFound) {
				return fmt.Errorf("node record %d is live but unreachable (err %v)", rid, err)
			}
		}
		return nil
	})
	if err != nil {
		tb.Fatalf("tree invariant: %v", err)
	}
	return sh
}

func childIsNil(b []byte, i int) bool {
	return bytes.Equal(b[2+i*8:2+i*8+8], make([]byte, 8))
}

// scanAll returns every (key, rid) pair in scan order.
func scanAll(tb testing.TB, tr *MVBTree, w *core.Worker) [][2]uint64 {
	tb.Helper()
	var got [][2]uint64
	if err := w.Run(func(tx *core.Txn) error {
		got = got[:0]
		return tr.Scan(tx, 0, ^uint64(0), -1, func(k uint64, r storage.RecordID) bool {
			got = append(got, [2]uint64{k, uint64(r)})
			return true
		})
	}); err != nil {
		tb.Fatal(err)
	}
	return got
}

func wantRun(tb testing.TB, got [][2]uint64, lo, hi uint64) {
	tb.Helper()
	if uint64(len(got)) != hi-lo {
		tb.Fatalf("scan has %d entries, want keys %d..%d", len(got), lo, hi-1)
	}
	for i, kv := range got {
		if kv[0] != lo+uint64(i) || kv[1] != kv[0] {
			tb.Fatalf("scan[%d] = %v, want key %d", i, kv, lo+uint64(i))
		}
	}
}

// fifoStep pushes tail and pops head in one transaction, as a queue does.
func fifoStep(tr *MVBTree, w *core.Worker, head, tail uint64) error {
	return w.Run(func(tx *core.Txn) error {
		if err := tr.Insert(tx, tail, storage.RecordID(tail)); err != nil {
			return err
		}
		return tr.Delete(tx, head, storage.RecordID(head))
	})
}

func ascendingTree(tb testing.TB, n uint64) (*core.Engine, *MVBTree) {
	tb.Helper()
	e := newEngine(1)
	tr := NewMVBTree(e, "bt", false)
	for k := uint64(0); k < n; k++ {
		k := k
		if err := e.Worker(0).Run(func(tx *core.Txn) error { return tr.Insert(tx, k, storage.RecordID(k)) }); err != nil {
			tb.Fatal(err)
		}
	}
	return e, tr
}

// TestMVBTreeQueueChurnConstantSpace slides a 1 k-key window through the
// tree. Once warm, every split must be served by a freed node's record ID,
// the height must be what 1 k keys need rather than what 200 k inserts
// built, and a full scan must return exactly the window.
func TestMVBTreeQueueChurnConstantSpace(t *testing.T) {
	const window = 1000
	steps, warm := uint64(200_000), uint64(20_000)
	if testing.Short() {
		steps, warm = 40_000, 10_000
	}
	e, tr := ascendingTree(t, window)
	w := e.Worker(0)
	fresh := checkTree(t, tr, w)
	var warmCap uint64
	for i := uint64(0); i < steps; i++ {
		if i == warm {
			warmCap = tr.tbl.Storage().Cap()
		}
		if err := fifoStep(tr, w, i, window+i); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	// Frees reach the free list two quiescence rounds after min_rts passes
	// them, and rounds are paced by the wall clock, so the number of record
	// IDs in flight wobbles by a few; unreclaimed leaves would add one ID
	// per seven steps.
	if grown := tr.tbl.Storage().Cap() - warmCap; grown > 8 {
		t.Errorf("node table grew by %d records over %d warm steps (cap %d)", grown, steps-warm, warmCap)
	}
	sh := checkTree(t, tr, w)
	if sh.height > fresh.height+1 || sh.nodes > fresh.nodes*5/4 {
		t.Errorf("after churn: %+v; a freshly built tree of the window: %+v", sh, fresh)
	}
	wantRun(t, scanAll(t, tr, w), steps, steps+window)
}

// TestMVBTreeDeleteAllThenReinsert empties a multi-level tree in random
// order — the root must collapse back to a single empty leaf, with every
// other node record dead — and grows it again.
func TestMVBTreeDeleteAllThenReinsert(t *testing.T) {
	const n = 3000
	e, tr := ascendingTree(t, n)
	w := e.Worker(0)
	if sh := checkTree(t, tr, w); sh.height < 4 || sh.pairs != n {
		t.Fatalf("built %+v", sh)
	}
	rng := rand.New(rand.NewSource(3))
	for i, k := range rng.Perm(n) {
		k := uint64(k)
		run(t, w, func(tx *core.Txn) error { return tr.Delete(tx, k, storage.RecordID(k)) })
		if i%97 == 0 {
			checkTree(t, tr, w)
		}
	}
	if sh := checkTree(t, tr, w); sh != (treeShape{height: 1, nodes: 1}) {
		t.Fatalf("emptied tree is %+v, want one empty root leaf", sh)
	}
	err := w.Run(func(tx *core.Txn) error { return tr.Delete(tx, 5, 5) })
	if !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("delete from the empty tree: %v", err)
	}
	for _, k := range rng.Perm(n) {
		k := uint64(k)
		run(t, w, func(tx *core.Txn) error { return tr.Insert(tx, k, storage.RecordID(k)) })
	}
	if sh := checkTree(t, tr, w); sh.height < 3 || sh.pairs != n {
		t.Fatalf("regrown %+v", sh)
	}
	wantRun(t, scanAll(t, tr, w), 0, n)
}

// TestMVBTreeFreedMiddleLeaves cuts runs of keys out of the middle of the
// tree, so whole leaves (and internal nodes) between live neighbours go and
// the leaf left of each hole, often under another parent, must be relinked
// across it: every scan and lookup around a hole must agree with the model.
func TestMVBTreeFreedMiddleLeaves(t *testing.T) {
	const n = 2000
	e, tr := ascendingTree(t, n)
	w := e.Worker(0)
	live := make([]bool, n)
	for i := range live {
		live[i] = true
	}
	rng := rand.New(rand.NewSource(11))
	before := checkTree(t, tr, w).nodes
	for round := 0; round < 40; round++ {
		lo := uint64(rng.Intn(n - 120))
		hi := lo + 20 + uint64(rng.Intn(100))
		for k := lo; k < hi; k++ {
			k := k
			err := w.Run(func(tx *core.Txn) error { return tr.Delete(tx, k, storage.RecordID(k)) })
			if live[k] != (err == nil) || (err != nil && !errors.Is(err, core.ErrNotFound)) {
				t.Fatalf("delete %d (live %v): %v", k, live[k], err)
			}
			live[k] = false
		}
		checkTree(t, tr, w)
		// A scan that starts inside the hole, and one that starts before it
		// and runs across.
		for _, from := range []uint64{lo, hi - 1, lo - lo%50} {
			var want []uint64
			for k := from; k < n && len(want) < 60; k++ {
				if live[k] {
					want = append(want, k)
				}
			}
			var got []uint64
			run(t, w, func(tx *core.Txn) error {
				got = got[:0]
				return tr.Scan(tx, from, ^uint64(0), 60, func(k uint64, _ storage.RecordID) bool {
					got = append(got, k)
					return true
				})
			})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round %d scan from %d:\n got %v\nwant %v", round, from, got, want)
			}
		}
		for _, k := range []uint64{lo, hi - 1, hi} {
			if k >= n {
				continue
			}
			err := w.Run(func(tx *core.Txn) error { _, err := tr.Get(tx, k); return err })
			if live[k] != (err == nil) {
				t.Fatalf("round %d get %d (live %v): %v", round, k, live[k], err)
			}
		}
	}
	if after := checkTree(t, tr, w).nodes; after >= before*3/4 {
		t.Errorf("tree still has %d of %d nodes after the cuts", after, before)
	}
}

// TestMVBTreeInsertAndEmptyLeafInOneTxn splits leaves into existence and
// empties them again inside one transaction: the freed leaf is the
// transaction's own uncommitted insert (core.Txn.Delete's accInsert branch).
func TestMVBTreeInsertAndEmptyLeafInOneTxn(t *testing.T) {
	const base = 7 // what a split keeps on the left: the new leaves hold new keys only
	for _, commit := range []bool{true, false} {
		e, tr := ascendingTree(t, base)
		w := e.Worker(0)
		capBefore := tr.tbl.Storage().Cap()
		sentinel := errors.New("rollback")
		err := w.Run(func(tx *core.Txn) error {
			for k := uint64(100); k < 160; k++ {
				if err := tr.Insert(tx, k, storage.RecordID(k)); err != nil {
					return err
				}
			}
			for k := uint64(159); k >= 100; k-- { // right to left: whole new leaves empty
				if err := tr.Delete(tx, k, storage.RecordID(k)); err != nil {
					return err
				}
				if _, err := tr.Get(tx, k-1); (k > 100) != (err == nil) {
					return fmt.Errorf("get %d after deleting %d: %v", k-1, k, err)
				}
			}
			if commit {
				return nil
			}
			return sentinel
		})
		if commit && err != nil || !commit && !errors.Is(err, sentinel) {
			t.Fatal(err)
		}
		if sh := checkTree(t, tr, w); sh != (treeShape{height: 1, nodes: 1, pairs: base}) {
			t.Errorf("commit=%v: tree is %+v, want the original single leaf", commit, sh)
		}
		wantRun(t, scanAll(t, tr, w), 0, base)
		// The transaction's own leaves were never published: their record
		// IDs go straight back and the next split reuses them.
		for k := uint64(base); k < 40; k++ {
			k := k
			run(t, w, func(tx *core.Txn) error { return tr.Insert(tx, k, storage.RecordID(k)) })
		}
		if grown := tr.tbl.Storage().Cap() - capBefore; grown > 12 {
			t.Errorf("commit=%v: node table grew by %d records", commit, grown)
		}
	}
}

// nodeTableImage copies every live record of the node table.
func nodeTableImage(t *testing.T, tr *MVBTree, w *core.Worker) map[storage.RecordID]string {
	t.Helper()
	img := map[storage.RecordID]string{}
	capacity := tr.tbl.Storage().Cap()
	run(t, w, func(tx *core.Txn) error {
		for rid := storage.RecordID(0); uint64(rid) < capacity; rid++ {
			d, err := tx.Read(tr.tbl, rid)
			if errors.Is(err, core.ErrNotFound) {
				continue
			}
			if err != nil {
				return err
			}
			img[rid] = string(d)
		}
		return nil
	})
	return img
}

// TestMVBTreeAbortedFreeLeavesNoTrace aborts a transaction that had freed a
// leaf, collapsed the root onto the other one and rewritten the meta record:
// the node table must be byte-identical afterwards.
func TestMVBTreeAbortedFreeLeavesNoTrace(t *testing.T) {
	e, tr := ascendingTree(t, leafCap+1) // one split: a root over two leaves
	w := e.Worker(0)
	if sh := checkTree(t, tr, w); sh != (treeShape{height: 2, nodes: 3, pairs: leafCap + 1}) {
		t.Fatalf("built %+v", sh)
	}
	before, capBefore := nodeTableImage(t, tr, w), tr.tbl.Storage().Cap()
	sentinel := errors.New("rollback")
	err := w.Run(func(tx *core.Txn) error {
		for k := uint64(0); k < leafCap+1; k++ {
			if err := tr.Delete(tx, k, storage.RecordID(k)); err != nil {
				return err
			}
		}
		root, ok, err := tr.root(tx)
		if err != nil || !ok {
			return fmt.Errorf("root inside the transaction: %v %v", ok, err)
		}
		if d, err := tx.Read(tr.tbl, root); err != nil || !nodeIsLeaf(d) || nodeN(d) != 0 {
			return fmt.Errorf("root did not collapse to an empty leaf: %v", err)
		}
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatal(err)
	}
	after := nodeTableImage(t, tr, w)
	if len(after) != len(before) || tr.tbl.Storage().Cap() != capBefore {
		t.Fatalf("%d live records of %d after the abort, %d of %d before", len(after), tr.tbl.Storage().Cap(), len(before), capBefore)
	}
	for rid, want := range before {
		if after[rid] != want {
			t.Errorf("record %d changed by an aborted transaction", rid)
		}
	}
	checkTree(t, tr, w)
	wantRun(t, scanAll(t, tr, w), 0, leafCap+1)
}

// TestMVBTreeConcurrentChurnAndReaders runs a FIFO through the tree on one
// worker while a second reads it: every committed reader transaction must
// have seen one consistent queue — its head present, nothing before the
// head, and a gap-free run of keys from the head and from the middle of the
// window, across whatever leaves the churn was freeing at the time. A
// reader that trips over a freed node must abort and retry, never fail.
//
// PendingWaitLimit turns the engine's known PENDING-version spin between two
// workers (ROADMAP item 1 (3)) into counted retries instead of a hang.
func TestMVBTreeConcurrentChurnAndReaders(t *testing.T) {
	const window = 1000
	steps := uint64(60_000)
	if testing.Short() {
		steps = 15_000
	}
	opts := core.DefaultOptions(2)
	opts.PendingWaitLimit = 10_000
	e := core.NewEngine(opts)
	tr := NewMVBTree(e, "bt", false)
	churner, reader := e.Worker(0), e.Worker(1)
	for k := uint64(0); k < window; k++ {
		k := k
		run(t, churner, func(tx *core.Txn) error { return tr.Insert(tx, k, storage.RecordID(k)) })
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(0); i < steps; i++ {
			if err := fifoStep(tr, churner, i, window+i); err != nil {
				t.Errorf("churn step %d: %v", i, err)
				return
			}
		}
	}()

	// gapFree scans up to limit entries from lo and returns the first key
	// and the count, or an error naming the first gap or wrong value.
	gapFree := func(tx *core.Txn, lo uint64, limit int) (first uint64, n int, err error) {
		var bad error
		err = tr.Scan(tx, lo, ^uint64(0), limit, func(k uint64, r storage.RecordID) bool {
			if n == 0 {
				first = k
			}
			if k != first+uint64(n) || uint64(r) != k {
				bad = fmt.Errorf("scan from %d: entry %d is (%d,%d) after a run from %d", lo, n, k, r, first)
				return false
			}
			n++
			return true
		})
		if err == nil {
			err = bad
		}
		return first, n, err
	}
	// check is judged only once its transaction has committed: before
	// validation a transaction may have read a mix of two states.
	check := func(tx *core.Txn) error {
		head, n, err := gapFree(tx, 0, 40)
		if err != nil {
			return err
		}
		if n != 40 {
			return fmt.Errorf("head scan returned %d keys from %d", n, head)
		}
		if rid, err := tr.Get(tx, head); err != nil || uint64(rid) != head {
			return fmt.Errorf("get head %d: %d %w", head, rid, err)
		}
		if head > 0 {
			if _, err := tr.Get(tx, head-1); !errors.Is(err, core.ErrNotFound) {
				return fmt.Errorf("get %d, before head %d: %w", head-1, head, err)
			}
		}
		mid, n, err := gapFree(tx, head+window/2, 100)
		if err != nil {
			return err
		}
		if mid != head+window/2 || n != 100 {
			return fmt.Errorf("mid scan: %d keys from %d, head %d", n, mid, head)
		}
		return nil
	}
	reads := 0
	for churning := true; churning; reads++ {
		select {
		case <-done:
			churning = false
		default:
		}
		var bad error
		err := reader.Run(func(tx *core.Txn) error {
			if bad = check(tx); errors.Is(bad, core.ErrAborted) {
				return bad
			}
			return nil
		})
		if err != nil || bad != nil {
			t.Fatalf("reader transaction %d: %v; committed having seen: %v", reads, err, bad)
		}
	}
	<-done
	st := e.Stats()
	t.Logf("%d reader transactions beside %d churn steps; %d aborts %v", reads, steps, st.Aborts, st.AbortsByReason)
	observeAll(e, reader)
	if sh := checkTree(t, tr, reader); sh.pairs != window {
		t.Errorf("tree holds %d pairs after the churn", sh.pairs)
	}
	wantRun(t, scanAll(t, tr, reader), steps, steps+window)
}

// TestMVBTreeConcurrentPairWriters has two writers insert and delete keys in
// pairs (k, k+1000) — small leaves fill, split, empty and are freed under
// each other — while two scanners count the range. Any transaction that
// commits must have seen every pair whole: an even count, and for a writer
// both halves present or both absent.
func TestMVBTreeConcurrentPairWriters(t *testing.T) {
	const workers, rounds = 4, 2000
	opts := core.DefaultOptions(workers)
	opts.PendingWaitLimit = 10_000
	e := core.NewEngine(opts)
	tr := NewMVBTree(e, "bt", true)
	done := make(chan struct{}, workers)
	for id := 0; id < workers; id++ {
		go func(id int) {
			defer func() { done <- struct{}{} }()
			w := e.Worker(id)
			rng := rand.New(rand.NewSource(int64(id) + 7))
			for i := 0; i < rounds; i++ {
				k := uint64(rng.Intn(60))
				var seen string // judged once the transaction has committed
				err := w.Run(func(tx *core.Txn) error {
					seen = ""
					if id%2 == 0 {
						n := 0
						if err := tr.Scan(tx, 0, 2000, -1, func(uint64, storage.RecordID) bool { n++; return true }); err != nil {
							return err
						}
						if n%2 != 0 {
							seen = fmt.Sprintf("scan counted %d entries", n)
						}
						return nil
					}
					_, errLo := tr.Get(tx, k)
					_, errHi := tr.Get(tx, k+1000)
					for _, err := range []error{errLo, errHi} {
						if err != nil && !errors.Is(err, core.ErrNotFound) {
							return err
						}
					}
					if (errLo == nil) != (errHi == nil) {
						seen = fmt.Sprintf("pair %d half present: %v / %v", k, errLo, errHi)
						return nil
					}
					for _, key := range []uint64{k, k + 1000} {
						var err error
						if errLo == nil {
							err = tr.Delete(tx, key, storage.RecordID(key))
						} else {
							err = tr.Insert(tx, key, storage.RecordID(key))
						}
						if errors.Is(err, core.ErrNotFound) || errors.Is(err, ErrDuplicate) {
							return core.ErrAborted // the two Gets straddled a concurrent commit: retry
						}
						if err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil || seen != "" {
					t.Errorf("worker %d round %d: %v; committed having seen: %s", id, i, err, seen)
					return
				}
			}
		}(id)
	}
	for id := 0; id < workers; id++ {
		<-done
	}
	observeAll(e, e.Worker(0))
	if sh := checkTree(t, tr, e.Worker(0)); sh.pairs%2 != 0 {
		t.Errorf("tree ends with %d pairs", sh.pairs)
	}
}

// TestMVBTreeDanglingPointerIsAnError breaks a tree on purpose — a leaf's
// record is deleted behind the tree's back, its parent still names it — and
// checks that the reader, whose snapshot is current, gets an error naming
// the node: not an abort that Worker.Run would retry forever, and not an
// ErrNotFound that says the key is absent.
func TestMVBTreeDanglingPointerIsAnError(t *testing.T) {
	e, tr := ascendingTree(t, 40)
	w := e.Worker(0)
	run(t, w, func(tx *core.Txn) error {
		root, _, err := tr.root(tx)
		if err != nil {
			return err
		}
		leaf, _, err := tr.descend(tx, root, 17, 0, nil)
		if err != nil {
			return err
		}
		return tx.Delete(tr.tbl, leaf)
	})
	err := w.Run(func(tx *core.Txn) error {
		_, err := tr.Get(tx, 17)
		return err
	})
	if err == nil || errors.Is(err, core.ErrAborted) || errors.Is(err, core.ErrNotFound) || !strings.Contains(err.Error(), "btree: node") {
		t.Fatalf("get through a dangling pointer: %v", err)
	}
}
