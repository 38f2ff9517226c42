package index

import (
	"math/rand"
	"sort"
	"testing"

	"cicada/internal/core"
	"cicada/internal/storage"
	"cicada/internal/wal"
)

// Index nodes are ordinary records, so an index is durable exactly when
// every node write reaches the redo log. These tests log an index workload,
// recover it into a fresh engine and compare: they are the end-to-end
// regression for the writes a promoting read used to hide from the log
// (docs/DURABILITY.md "Writes after a promoting read").

// recoverInto closes the log under dir's engine and replays it into a fresh
// engine on which build has created the same tables in the same order.
func recoverInto(t *testing.T, m *wal.Manager, dir string, build func(e *core.Engine)) *core.Engine {
	t.Helper()
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	e := newEngine(1)
	build(e)
	if _, err := wal.Recover(e, dir); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestMVHashLoggedLoadRecovers loads a hash index densely enough that
// buckets are revisited after their first versions have aged out — the
// third visit's read promotes the bucket and then updates it — and requires
// every key back after recovery.
func TestMVHashLoggedLoadRecovers(t *testing.T) {
	const keys = 20_000
	dir := t.TempDir()
	e := newEngine(1)
	h := NewMVHash(e, "h", keys, true)
	m, err := wal.Attach(e, wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w := e.Worker(0)
	for k := uint64(0); k < keys; k++ {
		k := k
		run(t, w, func(tx *core.Txn) error { return h.Insert(tx, k, storage.RecordID(k)) })
	}
	var h2 *MVHash
	e2 := recoverInto(t, m, dir, func(e *core.Engine) { h2 = NewMVHash(e, "h", keys, true) })
	missing := 0
	run(t, e2.Worker(0), func(tx *core.Txn) error {
		missing = 0
		for k := uint64(0); k < keys; k++ {
			if rid, err := h2.Get(tx, k); err != nil || rid != storage.RecordID(k) {
				missing++
			}
		}
		return nil
	})
	if missing != 0 {
		t.Fatalf("%d of %d keys missing from the recovered index", missing, keys)
	}
}

// TestMVBTreeDurableChurnRoundTrip churns a logged tree — a sliding window
// that frees leaves, spine nodes and roots, thinned by random deletes inside
// it — and recovers it: the scan must equal the model, the structure must hold,
// and no recovered node record may be live yet unreachable from the root (a
// freed node whose delete never reached the log).
func TestMVBTreeDurableChurnRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(1)
	tr := NewMVBTree(e, "bt", false)
	m, err := wal.Attach(e, wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w := e.Worker(0)
	model := map[uint64]bool{}
	ins := func(k uint64) {
		run(t, w, func(tx *core.Txn) error { return tr.Insert(tx, k, storage.RecordID(k)) })
		model[k] = true
	}
	del := func(k uint64) {
		run(t, w, func(tx *core.Txn) error { return tr.Delete(tx, k, storage.RecordID(k)) })
		delete(model, k)
	}
	const window, steps = 600, 20_000
	for k := uint64(0); k < window; k++ {
		ins(k)
	}
	rng := rand.New(rand.NewSource(5))
	for i := uint64(0); i < steps; i++ {
		ins(window + i)
		if model[i] {
			del(i)
		}
		// Besides the queue, thin the middle of the window now and then.
		if k := i + 1 + uint64(rng.Intn(window-1)); i%3 == 0 && model[k] {
			del(k)
		}
	}
	var tr2 *MVBTree
	e2 := recoverInto(t, m, dir, func(e *core.Engine) { tr2 = NewMVBTree(e, "bt", false) })
	w2 := e2.Worker(0)
	if sh := checkTree(t, tr2, w2); sh.pairs != len(model) {
		t.Errorf("recovered tree holds %d pairs, model %d", sh.pairs, len(model))
	}
	want := make([]uint64, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	got := scanAll(t, tr2, w2)
	if len(got) != len(want) {
		t.Fatalf("recovered scan has %d entries, model %d", len(got), len(want))
	}
	for i, k := range want {
		if got[i] != [2]uint64{k, k} {
			t.Fatalf("recovered scan[%d] = %v, want key %d", i, got[i], k)
		}
	}
	// The recovered tree keeps working.
	if err := fifoStep(tr2, w2, want[0], want[len(want)-1]+1); err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr2, w2)
}
