package index

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"cicada/internal/core"
	"cicada/internal/storage"
)

// modelMultimap mirrors an index as a sorted set of (key, rid) pairs.
type modelMultimap map[[2]uint64]struct{}

func (m modelMultimap) firstForKey(key uint64) (storage.RecordID, bool) {
	best := uint64(1<<64 - 1)
	found := false
	for kv := range m {
		if kv[0] == key && kv[1] <= best {
			best = kv[1]
			found = true
		}
	}
	return storage.RecordID(best), found
}

// TestModelBasedMVIndexes drives random operation sequences against both
// multi-version index types and a model multimap, auditing point lookups
// and (for the B+-tree) node structure and full ordered scans.
func TestModelBasedMVIndexes(t *testing.T) {
	for _, kind := range []string{"hash", "btree"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			e := core.NewEngine(core.DefaultOptions(1))
			var ix MVIndex
			if kind == "hash" {
				ix = NewMVHash(e, "m", 64, false) // tiny: stress overflow chains
			} else {
				ix = NewMVBTree(e, "m", false)
			}
			w := e.Worker(0)
			rng := rand.New(rand.NewSource(1234))
			model := modelMultimap{}

			for step := 0; step < 4000; step++ {
				key := uint64(rng.Intn(200))
				rid := storage.RecordID(rng.Intn(50))
				kv := [2]uint64{key, uint64(rid)}
				switch rng.Intn(3) {
				case 0: // insert
					_, exists := model[kv]
					err := w.Run(func(tx *core.Txn) error { return ix.Insert(tx, key, rid) })
					if kind == "btree" {
						if exists && !errors.Is(err, ErrDuplicate) {
							t.Fatalf("step %d: duplicate insert (%d,%d): %v", step, key, rid, err)
						}
						if !exists && err != nil {
							t.Fatalf("step %d: insert (%d,%d): %v", step, key, rid, err)
						}
					} else if err != nil {
						t.Fatalf("step %d: hash insert: %v", step, err)
					}
					model[kv] = struct{}{}
				case 1: // delete
					_, exists := model[kv]
					err := w.Run(func(tx *core.Txn) error { return ix.Delete(tx, key, rid) })
					if exists && err != nil {
						t.Fatalf("step %d: delete existing (%d,%d): %v", step, key, rid, err)
					}
					if !exists && kind == "btree" && !errors.Is(err, core.ErrNotFound) {
						t.Fatalf("step %d: delete absent: %v", step, err)
					}
					delete(model, kv)
				default: // point lookup
					var got storage.RecordID
					err := w.Run(func(tx *core.Txn) error {
						r, err := ix.Get(tx, key)
						got = r
						return err
					})
					_, want := model.firstForKey(key)
					if want && err != nil {
						t.Fatalf("step %d: get %d: %v", step, key, err)
					}
					if !want && !errors.Is(err, core.ErrNotFound) {
						t.Fatalf("step %d: get absent %d: %v", step, key, err)
					}
					if kind == "btree" && want {
						wantRid, _ := model.firstForKey(key)
						if got != wantRid {
							t.Fatalf("step %d: get %d = %d, want %d", step, key, got, wantRid)
						}
					}
				}
				// The tree's structural invariants hold after every step, and
				// it holds exactly the model's pairs.
				if bt, ok := ix.(*MVBTree); ok {
					if sh := checkTree(t, bt, w); sh.pairs != len(model) {
						t.Fatalf("step %d: tree holds %d pairs, model %d", step, sh.pairs, len(model))
					}
				}
				// Periodic full-scan audit for the ordered index.
				if kind == "btree" && step%500 == 499 {
					var got [][2]uint64
					if err := w.Run(func(tx *core.Txn) error {
						got = got[:0]
						return ix.Scan(tx, 0, ^uint64(0), -1, func(k uint64, r storage.RecordID) bool {
							got = append(got, [2]uint64{k, uint64(r)})
							return true
						})
					}); err != nil {
						t.Fatal(err)
					}
					want := make([][2]uint64, 0, len(model))
					for kv := range model {
						want = append(want, kv)
					}
					sort.Slice(want, func(a, b int) bool {
						if want[a][0] != want[b][0] {
							return want[a][0] < want[b][0]
						}
						return want[a][1] < want[b][1]
					})
					if len(got) != len(want) {
						t.Fatalf("step %d: scan has %d entries, model %d", step, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("step %d: scan[%d] = %v, want %v", step, i, got[i], want[i])
						}
					}
				}
			}
			// Drain: the random phase mostly grows the index; deleting what
			// is left in random order walks the tree back down to an empty
			// root leaf, freeing every other node on the way.
			left := make([][2]uint64, 0, len(model))
			for kv := range model {
				left = append(left, kv)
			}
			sort.Slice(left, func(a, b int) bool { return cmpKV(left[a][0], left[a][1], left[b][0], left[b][1]) < 0 })
			rng.Shuffle(len(left), func(a, b int) { left[a], left[b] = left[b], left[a] })
			for i, kv := range left {
				if err := w.Run(func(tx *core.Txn) error { return ix.Delete(tx, kv[0], storage.RecordID(kv[1])) }); err != nil {
					t.Fatalf("drain %d: delete %v: %v", i, kv, err)
				}
				if bt, ok := ix.(*MVBTree); ok {
					if sh := checkTree(t, bt, w); sh.pairs != len(left)-i-1 {
						t.Fatalf("drain %d: tree holds %d pairs, want %d", i, sh.pairs, len(left)-i-1)
					}
				}
			}
			if bt, ok := ix.(*MVBTree); ok {
				if sh := checkTree(t, bt, w); sh != (treeShape{height: 1, nodes: 1}) {
					t.Fatalf("drained tree is %+v", sh)
				}
			}
		})
	}
}
