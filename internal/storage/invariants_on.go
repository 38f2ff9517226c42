//go:build cicada_invariants

package storage

import (
	"fmt"

	"cicada/internal/clock"
)

// InvariantsEnabled reports whether runtime invariant assertions are compiled
// in (build tag cicada_invariants). Call sites gate assertion work behind
// this constant so the disabled build pays nothing.
const InvariantsEnabled = true

// Assertf panics with a formatted message if cond is false. It is the
// assertion primitive shared by the invariant hooks in storage, clock, and
// core; formatting cost is only paid on failure.
func Assertf(cond bool, format string, args ...any) {
	if !cond {
		panic("cicada invariant violation: " + fmt.Sprintf(format, args...))
	}
}

// CheckChainSorted asserts that the version list starting at v is sorted by
// strictly descending write timestamp (§3.2: lists are maintained
// latest-to-earliest; sorted order is preserved by CAS insertion and by
// garbage-collection detachment). v must come from a fresh Latest() load so
// the traversal cannot reach an epoch-recycled node.
func CheckChainSorted(v *Version, where string) {
	prev := ^clock.Timestamp(0)
	n := 0
	for ; v != nil; v = v.Next() {
		Assertf(v.WTS < prev, "%s: version list out of order (wts %v not below %v)", where, v.WTS, prev)
		prev = v.WTS
		if n++; n > 1<<20 {
			panic("cicada invariant violation: " + where + ": version list cycle")
		}
	}
}

// CheckCommitOrder asserts that the first committed version below nv has not
// been read at a timestamp beyond nv's write timestamp. This is exactly what
// validation guarantees at the moment a pending version flips to COMMITTED
// (§3.4); it does not hold in NoWaitPending mode, where speculative readers
// may raise rts above a pending version and abort later instead.
func CheckCommitOrder(nv *Version, where string) {
	for v := nv.Next(); v != nil; v = v.Next() {
		switch v.Status() {
		case StatusCommitted, StatusDeleted:
			Assertf(v.RTS() <= nv.WTS,
				"%s: committing wts %v over version with rts %v (read-after cross)", where, nv.WTS, v.RTS())
			return
		}
	}
}
