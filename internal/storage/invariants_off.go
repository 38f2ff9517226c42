//go:build !cicada_invariants

package storage

// InvariantsEnabled reports whether runtime invariant assertions are compiled
// in (build tag cicada_invariants). In this build they are not; the stubs
// below exist so call sites compile and fold to nothing.
const InvariantsEnabled = false

// Assertf is a no-op in builds without the cicada_invariants tag.
func Assertf(cond bool, format string, args ...any) {}

// CheckChainSorted is a no-op in builds without the cicada_invariants tag.
func CheckChainSorted(v *Version, where string) {}

// CheckCommitOrder is a no-op in builds without the cicada_invariants tag.
func CheckCommitOrder(nv *Version, where string) {}
