package index

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cicada/internal/core"
	"cicada/internal/storage"
)

// MVBTree is Cicada's multi-version ordered index: a B+-tree whose nodes are
// records in a Cicada table (§3.6). Node reads join the transaction's read
// set, so any structural change that could affect a committed transaction's
// result — including phantoms for range scans and absent-key probes — is
// caught by version validation. Node writes stay thread-local until
// validation, so aborted transactions never perturb global index state.
//
// Entries are composite (key, val) pairs ordered lexicographically, which
// supports duplicate keys with distinct record IDs.
//
// Nodes have a lifecycle: a split inserts a node record, and Delete frees a
// node the moment it holds nothing — an emptied leaf, an internal node whose
// last child went, a root left with a single child — with an ordinary
// tx.Delete, so the engine's garbage collector hands the record ID back
// (§3.8) and insert/delete churn runs in constant space. Partly filled
// nodes are never merged or rebalanced: that would write siblings the
// operation did not otherwise touch (more conflicts), and it is not needed
// to bound space, because a node that stays is one that still holds a key.
//
// Leaves are chained left to right and Scan follows the chain: one read per
// leaf and nothing to carry between them. Freeing a leaf therefore rewrites
// the link in its left neighbour as well as its parent — one write to a
// sibling per emptied leaf (none for the leftmost leaf, a queue's head), where
// rebalancing would write one on most deletes. Dropping the link and stepping through
// the parents would spare that write, but every Get and Scan would have to
// keep its descent path: 6 % fewer queue transactions per second, slower in
// 10 of 10 interleaved runs (CHANGES.md, PR 18).
//
// Node records are 202 bytes — within the 216-byte inline limit, so hot
// nodes are inlined into their record heads by best-effort inlining.
const (
	nodeSize = 202
	leafCap  = 12 // (key, val) pairs per leaf
	intCap   = 8  // separators per internal node; children = intCap + 1

	// maxHeight bounds the descent path kept on the stack. Children are only
	// gained through splits and a split leaves at least five, so a root at
	// height h took more than 4^(h-2) inserts to grow: 32 is out of reach.
	maxHeight = 32
)

// Leaf layout:   [0]=1  [1]=n  [2:10)=next-leaf rid+1  [10:202)=n×(key,val)
// Internal:      [0]=0  [1]=n  [2:74)=9×(child rid+1)  [74:202)=8×(key,val)
func nodeIsLeaf(b []byte) bool { return b[0] == 1 }
func nodeN(b []byte) int       { return int(b[1]) }
func setNodeN(b []byte, n int) { b[1] = byte(n) }

func leafNext(b []byte) (storage.RecordID, bool) {
	v := binary.LittleEndian.Uint64(b[2:10])
	if v == 0 {
		return 0, false
	}
	return storage.RecordID(v - 1), true
}
func setLeafNext(b []byte, rid storage.RecordID) {
	binary.LittleEndian.PutUint64(b[2:10], uint64(rid)+1)
}
func leafPair(b []byte, i int) (uint64, uint64) {
	off := 10 + i*16
	return binary.LittleEndian.Uint64(b[off:]), binary.LittleEndian.Uint64(b[off+8:])
}
func setLeafPair(b []byte, i int, k, v uint64) {
	off := 10 + i*16
	binary.LittleEndian.PutUint64(b[off:], k)
	binary.LittleEndian.PutUint64(b[off+8:], v)
}

func intChild(b []byte, i int) storage.RecordID {
	return storage.RecordID(binary.LittleEndian.Uint64(b[2+i*8:]) - 1)
}
func setIntChild(b []byte, i int, rid storage.RecordID) {
	binary.LittleEndian.PutUint64(b[2+i*8:], uint64(rid)+1)
}
func intSep(b []byte, i int) (uint64, uint64) {
	off := 74 + i*16
	return binary.LittleEndian.Uint64(b[off:]), binary.LittleEndian.Uint64(b[off+8:])
}
func setIntSep(b []byte, i int, k, v uint64) {
	off := 74 + i*16
	binary.LittleEndian.PutUint64(b[off:], k)
	binary.LittleEndian.PutUint64(b[off+8:], v)
}

// errTooTall reports a descent deeper than maxHeight, which only a corrupt
// node table can produce.
var errTooTall = errors.New("btree: tree taller than maxHeight")

// nodeErr classifies a failed read of a node reached through a child pointer
// or a leaf link. Aborts pass through untouched so the abort/retry hot path
// does not allocate a wrapper. A node that is not there was freed by a
// delete with an earlier timestamp after tx read the pointer to it: the node
// holding the pointer changed under tx, tx.Stale says so, and the conflict
// is reported now so the caller retries. In a snapshot that is still current
// no pointer dangles, so there the missing node is an error to surface, not
// something to retry forever — and not one that wraps ErrNotFound, which
// callers (Insert's uniqueness probe among them) read as "no such key".
func nodeErr(tx *core.Txn, rid storage.RecordID, err error) error {
	if errors.Is(err, core.ErrAborted) {
		return err
	}
	if errors.Is(err, core.ErrNotFound) && tx.Stale() {
		return core.ErrAborted
	}
	return fmt.Errorf("btree: node %d: %v", rid, err)
}

// cmpKV orders composite (key, val) pairs.
func cmpKV(k1, v1, k2, v2 uint64) int {
	switch {
	case k1 < k2:
		return -1
	case k1 > k2:
		return 1
	case v1 < v2:
		return -1
	case v1 > v2:
		return 1
	}
	return 0
}

// childSlot returns the index of the child of internal node b whose range
// holds (key, val).
func childSlot(b []byte, key, val uint64) int {
	n := nodeN(b)
	i := 0
	for i < n {
		sk, sv := intSep(b, i)
		if cmpKV(key, val, sk, sv) < 0 {
			break
		}
		i++
	}
	return i
}

// removeChild drops child slot i of internal node b and one separator next
// to it: the one on its left, which hands the child's key range to its left
// neighbour, or for the leftmost child the one on its right.
func removeChild(b []byte, i int) {
	n := nodeN(b)
	si := i - 1
	if si < 0 {
		si = 0
	}
	copy(b[2+i*8:2+n*8], b[2+(i+1)*8:2+(n+1)*8])
	clearBytes(b[2+n*8 : 2+(n+1)*8])
	copy(b[74+si*16:74+(n-1)*16], b[74+(si+1)*16:74+n*16])
	clearBytes(b[74+(n-1)*16 : 74+n*16])
	setNodeN(b, n-1)
}

// step is one internal node of a descent: the record, the bytes the
// transaction read, and the child slot taken.
type step struct {
	rid  storage.RecordID
	data []byte
	slot int
}

// path is the internal nodes of one root-to-leaf descent, root first. Delete
// keeps one on its stack to find what to rewrite above an emptied leaf.
type path struct {
	n     int
	steps [maxHeight]step
}

// MVBTree's meta record (record 0 of the node table) stores the root node's
// record ID + 1.
type MVBTree struct {
	tbl    *core.Table
	meta   storage.RecordID
	unique bool
}

// NewMVBTree creates a multi-version B+-tree backed by its own node table.
func NewMVBTree(e *core.Engine, name string, unique bool) *MVBTree {
	t := &MVBTree{tbl: e.CreateTable(name), unique: unique}
	t.meta = t.tbl.Storage().Reserve(1)
	return t
}

// Table exposes the backing node table.
func (t *MVBTree) Table() *core.Table { return t.tbl }

// root returns the root node record ID, or ok=false for an empty tree. The
// meta read joins the read set, so a committed transaction's view of the
// root is validated.
//
//cicada:noalloc
func (t *MVBTree) root(tx *core.Txn) (storage.RecordID, bool, error) {
	data, err := tx.Read(t.tbl, t.meta)
	if errors.Is(err, core.ErrNotFound) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	v := binary.LittleEndian.Uint64(data)
	if v == 0 {
		return 0, false, nil
	}
	return storage.RecordID(v - 1), true, nil
}

//cicada:noalloc
func (t *MVBTree) setRoot(tx *core.Txn, rid storage.RecordID) error {
	buf, err := tx.Write(t.tbl, t.meta, 8)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(buf, uint64(rid)+1)
	return nil
}

// descend walks from node rid down to the leaf whose range holds (key, val),
// reading every node inside tx and, if p is not nil, appending the internal
// ones to it.
//
//cicada:noalloc
func (t *MVBTree) descend(tx *core.Txn, rid storage.RecordID, key, val uint64, p *path) (storage.RecordID, []byte, error) {
	for {
		data, err := tx.Read(t.tbl, rid)
		if err != nil {
			return 0, nil, nodeErr(tx, rid, err)
		}
		if nodeIsLeaf(data) {
			return rid, data, nil
		}
		i := childSlot(data, key, val)
		if p != nil {
			if p.n == maxHeight {
				return 0, nil, errTooTall
			}
			p.steps[p.n] = step{rid: rid, data: data, slot: i}
			p.n++
		}
		rid = intChild(data, i)
	}
}

// Get returns the first record ID with the given key.
//
//cicada:noalloc
func (t *MVBTree) Get(tx *core.Txn, key uint64) (storage.RecordID, error) {
	var out storage.RecordID
	found := false
	err := t.Scan(tx, key, key, 1, func(_ uint64, rid storage.RecordID) bool {
		out, found = rid, true
		return false
	})
	if err != nil {
		return storage.InvalidRecordID, err
	}
	if !found {
		return storage.InvalidRecordID, core.ErrNotFound
	}
	return out, nil
}

// Scan visits pairs with lo ≤ key ≤ hi in (key, val) order until fn returns
// false or limit entries are emitted (limit < 0 = unlimited). Every leaf
// touched is in the read set, which precludes phantoms.
//
//cicada:noalloc
func (t *MVBTree) Scan(tx *core.Txn, lo, hi uint64, limit int, fn func(key uint64, rid storage.RecordID) bool) error {
	root, ok, err := t.root(tx)
	if err != nil || !ok {
		return err // !ok: empty tree
	}
	rid, data, err := t.descend(tx, root, lo, 0, nil)
	if err != nil {
		return err
	}
	emitted := 0
	for {
		n := nodeN(data)
		for i := 0; i < n; i++ {
			k, v := leafPair(data, i)
			if k < lo {
				continue
			}
			if k > hi {
				return nil
			}
			if !fn(k, storage.RecordID(v)) {
				return nil
			}
			emitted++
			if limit >= 0 && emitted >= limit {
				return nil
			}
		}
		if rid, ok = leafNext(data); !ok {
			return nil
		}
		if data, err = tx.Read(t.tbl, rid); err != nil {
			return nodeErr(tx, rid, err)
		}
	}
}

// Insert adds (key → rid). For a unique index it returns ErrDuplicate if key
// already exists; it always returns ErrDuplicate for an exact (key, rid)
// duplicate.
//
//cicada:noalloc
func (t *MVBTree) Insert(tx *core.Txn, key uint64, rid storage.RecordID) error {
	if t.unique {
		if _, err := t.Get(tx, key); err == nil {
			return ErrDuplicate
		} else if !errors.Is(err, core.ErrNotFound) {
			return err
		}
	}
	root, ok, err := t.root(tx)
	if err != nil {
		return err
	}
	if !ok {
		leafRid, buf, err := tx.Insert(t.tbl, nodeSize)
		if err != nil {
			return err
		}
		clearBytes(buf)
		buf[0] = 1
		setNodeN(buf, 1)
		setLeafPair(buf, 0, key, uint64(rid))
		return t.setRoot(tx, leafRid)
	}
	sepK, sepV, right, split, err := t.insertRec(tx, root, key, uint64(rid))
	if err != nil {
		return err
	}
	if !split {
		return nil
	}
	// Grow the tree: new internal root over (old root, right).
	newRoot, buf, err := tx.Insert(t.tbl, nodeSize)
	if err != nil {
		return err
	}
	clearBytes(buf)
	setNodeN(buf, 1)
	setIntChild(buf, 0, root)
	setIntChild(buf, 1, right)
	setIntSep(buf, 0, sepK, sepV)
	return t.setRoot(tx, newRoot)
}

// insertRec inserts into the subtree rooted at rid; on a split it returns
// the separator and the new right sibling's record ID.
//
//cicada:noalloc
func (t *MVBTree) insertRec(tx *core.Txn, rid storage.RecordID, key, val uint64) (sepK, sepV uint64, right storage.RecordID, split bool, err error) {
	data, err := tx.Read(t.tbl, rid)
	if err != nil {
		return 0, 0, 0, false, nodeErr(tx, rid, err)
	}
	if nodeIsLeaf(data) {
		return t.insertLeaf(tx, rid, data, key, val)
	}
	n := nodeN(data)
	ci := childSlot(data, key, val)
	childSepK, childSepV, childRight, childSplit, err := t.insertRec(tx, intChild(data, ci), key, val)
	if err != nil || !childSplit {
		return 0, 0, 0, false, err
	}
	// Insert (childSep, childRight) after child ci.
	if n < intCap {
		buf, err := tx.Update(t.tbl, rid, -1)
		if err != nil {
			return 0, 0, 0, false, err
		}
		for j := n; j > ci; j-- {
			sk, sv := intSep(buf, j-1)
			setIntSep(buf, j, sk, sv)
			setIntChild(buf, j+1, intChild(buf, j))
		}
		setIntSep(buf, ci, childSepK, childSepV)
		setIntChild(buf, ci+1, childRight)
		setNodeN(buf, n+1)
		return 0, 0, 0, false, nil
	}
	// Split the internal node: gather intCap+1 separators and intCap+2
	// children, promote the middle separator.
	var seps [intCap + 1][2]uint64
	var kids [intCap + 2]storage.RecordID
	for j := 0; j < ci; j++ {
		sk, sv := intSep(data, j)
		seps[j] = [2]uint64{sk, sv}
	}
	seps[ci] = [2]uint64{childSepK, childSepV}
	for j := ci; j < n; j++ {
		sk, sv := intSep(data, j)
		seps[j+1] = [2]uint64{sk, sv}
	}
	for j := 0; j <= ci; j++ {
		kids[j] = intChild(data, j)
	}
	kids[ci+1] = childRight
	for j := ci + 1; j <= n; j++ {
		kids[j+1] = intChild(data, j)
	}
	const mid = (intCap + 1) / 2 // promoted separator index
	rightRid, rbuf, err := tx.Insert(t.tbl, nodeSize)
	if err != nil {
		return 0, 0, 0, false, err
	}
	clearBytes(rbuf)
	rn := intCap - mid
	setNodeN(rbuf, rn)
	for j := 0; j < rn; j++ {
		setIntSep(rbuf, j, seps[mid+1+j][0], seps[mid+1+j][1])
	}
	for j := 0; j <= rn; j++ {
		setIntChild(rbuf, j, kids[mid+1+j])
	}
	lbuf, err := tx.Update(t.tbl, rid, -1)
	if err != nil {
		return 0, 0, 0, false, err
	}
	clearBytes(lbuf)
	setNodeN(lbuf, mid)
	for j := 0; j < mid; j++ {
		setIntSep(lbuf, j, seps[j][0], seps[j][1])
	}
	for j := 0; j <= mid; j++ {
		setIntChild(lbuf, j, kids[j])
	}
	return seps[mid][0], seps[mid][1], rightRid, true, nil
}

//cicada:noalloc
func (t *MVBTree) insertLeaf(tx *core.Txn, rid storage.RecordID, data []byte, key, val uint64) (sepK, sepV uint64, right storage.RecordID, split bool, err error) {
	n := nodeN(data)
	pos := 0
	for pos < n {
		k, v := leafPair(data, pos)
		c := cmpKV(key, val, k, v)
		if c == 0 {
			return 0, 0, 0, false, ErrDuplicate
		}
		if c < 0 {
			break
		}
		pos++
	}
	if n < leafCap {
		buf, err := tx.Update(t.tbl, rid, -1)
		if err != nil {
			return 0, 0, 0, false, err
		}
		for j := n; j > pos; j-- {
			k, v := leafPair(buf, j-1)
			setLeafPair(buf, j, k, v)
		}
		setLeafPair(buf, pos, key, val)
		setNodeN(buf, n+1)
		return 0, 0, 0, false, nil
	}
	// Split: distribute leafCap+1 pairs across the two leaves.
	var pairs [leafCap + 1][2]uint64
	for j := 0; j < pos; j++ {
		k, v := leafPair(data, j)
		pairs[j] = [2]uint64{k, v}
	}
	pairs[pos] = [2]uint64{key, val}
	for j := pos; j < n; j++ {
		k, v := leafPair(data, j)
		pairs[j+1] = [2]uint64{k, v}
	}
	const keep = (leafCap + 1 + 1) / 2 // left keeps 7 of 13
	rightRid, rbuf, err := tx.Insert(t.tbl, nodeSize)
	if err != nil {
		return 0, 0, 0, false, err
	}
	clearBytes(rbuf)
	rbuf[0] = 1
	rn := leafCap + 1 - keep
	setNodeN(rbuf, rn)
	copy(rbuf[2:10], data[2:10]) // the right half inherits the link
	for j := 0; j < rn; j++ {
		setLeafPair(rbuf, j, pairs[keep+j][0], pairs[keep+j][1])
	}
	lbuf, err := tx.Update(t.tbl, rid, -1)
	if err != nil {
		return 0, 0, 0, false, err
	}
	clearBytes(lbuf[10:]) // keep the leaf flag; the link is rewritten below
	setNodeN(lbuf, keep)
	setLeafNext(lbuf, rightRid)
	for j := 0; j < keep; j++ {
		setLeafPair(lbuf, j, pairs[j][0], pairs[j][1])
	}
	return pairs[keep][0], pairs[keep][1], rightRid, true, nil
}

// Delete removes (key → rid); ErrNotFound if absent. A leaf that still holds
// a pair is rewritten in place. A non-root leaf whose last pair goes is freed
// instead, together with whatever its going leaves empty above it (see
// unlink); the root leaf stays, possibly empty. All of it is staged in tx's
// write set like a split, so an abort leaves no trace.
//
//cicada:noalloc
func (t *MVBTree) Delete(tx *core.Txn, key uint64, rid storage.RecordID) error {
	root, ok, err := t.root(tx)
	if err != nil {
		return err
	}
	if !ok {
		return core.ErrNotFound
	}
	var p path
	leaf, data, err := t.descend(tx, root, key, uint64(rid), &p)
	if err != nil {
		return err
	}
	n := nodeN(data)
	i := 0
	for i < n {
		if k, v := leafPair(data, i); k == key && v == uint64(rid) {
			break
		}
		i++
	}
	if i == n {
		return core.ErrNotFound
	}
	if n == 1 && p.n > 0 {
		return t.unlink(tx, leaf, data, &p)
	}
	buf, err := tx.Update(t.tbl, leaf, -1)
	if err != nil {
		return err
	}
	copy(buf[10+i*16:10+(n-1)*16], buf[10+(i+1)*16:10+n*16])
	setLeafPair(buf, n-1, 0, 0)
	setNodeN(buf, n-1)
	return nil
}

// unlink frees the emptied leaf at the end of p: it hands the leaf's link to
// the leaf on its left, frees the leaf and every ancestor whose only child
// it was (the dead spine a FIFO leaves behind its head), and takes the freed
// subtree out of the lowest ancestor that keeps another child. If that
// ancestor is the root and a single child is all it keeps, the child becomes
// the root — and its only child in turn — so an internal root always has two
// children and the height follows the live keys, not the history.
//
// Readers need no fence: a transaction with an earlier timestamp still sees
// the old parent and the old leaf versions, one with a later timestamp sees
// neither, and the freed record IDs are reused only after min_rts has passed
// the delete and every transaction that could hold a pointer has finished
// (docs/CONCURRENCY.md "B+-tree node frees").
//
//cicada:noalloc
func (t *MVBTree) unlink(tx *core.Txn, leaf storage.RecordID, data []byte, p *path) error {
	// The left neighbour is the rightmost leaf under the nearest left
	// sibling on the path (no separator sorts above the maximal pair); the
	// tree's leftmost leaf has none.
	lvl := p.n - 1
	for lvl >= 0 && p.steps[lvl].slot == 0 {
		lvl--
	}
	if lvl >= 0 {
		prev, _, err := t.descend(tx, intChild(p.steps[lvl].data, p.steps[lvl].slot-1), ^uint64(0), ^uint64(0), nil)
		if err != nil {
			return err
		}
		buf, err := tx.Update(t.tbl, prev, -1)
		if err != nil {
			return err
		}
		copy(buf[2:10], data[2:10]) // before Delete hands data's buffer back
	}
	if err := tx.Delete(t.tbl, leaf); err != nil {
		return err
	}
	lvl = p.n - 1
	for lvl > 0 && nodeN(p.steps[lvl].data) == 0 {
		if err := tx.Delete(t.tbl, p.steps[lvl].rid); err != nil {
			return err
		}
		lvl--
	}
	s := &p.steps[lvl]
	if lvl > 0 || nodeN(s.data) > 1 {
		buf, err := tx.Update(t.tbl, s.rid, -1)
		if err != nil {
			return err
		}
		removeChild(buf, s.slot)
		return nil
	}
	dead, heir := s.rid, intChild(s.data, 1-s.slot)
	for {
		if err := tx.Delete(t.tbl, dead); err != nil {
			return err
		}
		data, err := tx.Read(t.tbl, heir)
		if err != nil {
			return nodeErr(tx, heir, err)
		}
		if nodeIsLeaf(data) || nodeN(data) > 0 {
			return t.setRoot(tx, heir)
		}
		dead, heir = heir, intChild(data, 0)
	}
}
