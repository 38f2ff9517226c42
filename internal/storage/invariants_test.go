package storage

import (
	"testing"

	"cicada/internal/clock"
)

// TestInvariantAssertionsFire verifies the cicada_invariants hooks actually
// detect violations when compiled in (go test -tags cicada_invariants); in
// the default build it verifies they are free no-ops.
func TestInvariantAssertionsFire(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected invariant panic", name)
			}
		}()
		fn()
	}

	if !InvariantsEnabled {
		// Disabled build: the stubs must tolerate violating inputs silently.
		Assertf(false, "ignored")
		v := NewVersion(0)
		v.PrepareInstall(5)
		n := NewVersion(0)
		n.PrepareInstall(9) // out of order below v
		v.SetNext(n)
		CheckChainSorted(v, "test")
		CheckCommitOrder(v, "test")
		return
	}

	mustPanic("Assertf", func() { Assertf(false, "forced failure %d", 1) })

	mustPanic("CheckChainSorted", func() {
		v := NewVersion(0)
		v.PrepareInstall(5)
		n := NewVersion(0)
		n.PrepareInstall(9) // newer version linked below an older one
		v.SetNext(n)
		CheckChainSorted(v, "test")
	})

	mustPanic("CheckCommitOrder", func() {
		nv := NewVersion(0)
		nv.PrepareInstall(5)
		below := NewVersion(0)
		below.PrepareInstall(3)
		below.SetStatus(StatusCommitted)
		below.SetRTS(clock.Timestamp(8)) // read beyond nv's wts
		nv.SetNext(below)
		CheckCommitOrder(nv, "test")
	})

	// And the checks accept valid states.
	v := NewVersion(0)
	v.PrepareInstall(9)
	n := NewVersion(0)
	n.PrepareInstall(5)
	n.SetStatus(StatusCommitted)
	v.SetNext(n)
	CheckChainSorted(v, "test")
	CheckCommitOrder(v, "test")
}
