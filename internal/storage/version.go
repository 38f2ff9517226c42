// Package storage implements Cicada's multi-version record storage (§3.2)
// and best-effort inlining (§3.3).
//
// A table is an expandable array of record heads addressed by 64-bit record
// IDs, organized as two-level paging with fixed-size pages. Each head anchors
// a singly-linked list of versions sorted latest-to-earliest by write
// timestamp. The head also embeds one preallocated inline version whose data
// buffer lives inside the head itself, saving a cache miss (and in Go, a
// pointer chase and an allocation) for small, read-mostly records.
package storage

import (
	"sync/atomic"

	"cicada/internal/clock"
)

// Status is the commit status of a version (§3.2).
type Status uint32

const (
	// StatusUnused marks an inline version slot that is not in use.
	StatusUnused Status = iota
	// StatusPending marks a version installed by a transaction that is
	// still validating or writing. Readers spin-wait on pending versions.
	StatusPending
	// StatusCommitted marks a valid version.
	StatusCommitted
	// StatusAborted marks a version whose transaction rolled back; readers
	// skip it and garbage collection unlinks it.
	StatusAborted
	// StatusDeleted marks a committed zero-length version that deletes the
	// record; garbage collection reclaims the record ID once it is the only
	// remaining version.
	StatusDeleted
)

// String returns the status name for debugging.
func (s Status) String() string {
	switch s {
	case StatusUnused:
		return "UNUSED"
	case StatusPending:
		return "PENDING"
	case StatusCommitted:
		return "COMMITTED"
	case StatusAborted:
		return "ABORTED"
	case StatusDeleted:
		return "DELETED"
	}
	return "INVALID"
}

// InlineSize is the maximum record data size eligible for inlining in the
// record head. The paper inlines up to 216 bytes (four cache lines per head
// node including overhead).
const InlineSize = 216

// Version is one version of a record. WTS and Data are immutable once the
// version is installed; rts and status are updated concurrently with atomic
// operations; next changes only under version-list insertion CAS or garbage
// collection.
type Version struct {
	// WTS is the write timestamp: the timestamp of the transaction that
	// created this version.
	WTS clock.Timestamp
	// rts is the read timestamp: the maximum timestamp of (possibly)
	// committed transactions that read this version.
	rts atomic.Uint64
	// status is the commit status (a Status value).
	status atomic.Uint32
	// next points to the next-earlier version.
	next atomic.Pointer[Version]
	// Data is the record payload. For an inline version it aliases the
	// head's embedded buffer.
	Data []byte
	// buf is the backing array for non-inline versions, retained so pooled
	// reuse can restore capacity.
	buf []byte
	// inline marks the version as the head-embedded slot.
	inline bool
}

// RTS returns the version's read timestamp.
func (v *Version) RTS() clock.Timestamp { return clock.Timestamp(v.rts.Load()) }

// RaiseRTS raises the read timestamp to at least ts. The write is
// conditional: if the current read timestamp is already ≥ ts nothing is
// written, which keeps contended read validation cheap (§3.4).
func (v *Version) RaiseRTS(ts clock.Timestamp) {
	for {
		cur := v.rts.Load()
		if cur >= uint64(ts) || v.rts.CompareAndSwap(cur, uint64(ts)) {
			return
		}
	}
}

// SetRTS unconditionally stores the read timestamp. It is used during
// version creation before the version is reachable.
func (v *Version) SetRTS(ts clock.Timestamp) { v.rts.Store(uint64(ts)) }

// PrepareInstall initializes the version's timestamp words for installation
// at ts: wts = rts = ts, status = PENDING. It is the only sanctioned way to
// write WTS outside this package; it must run before the version becomes
// reachable (the statusorder analyzer enforces this discipline).
func (v *Version) PrepareInstall(ts clock.Timestamp) {
	v.WTS = ts
	v.rts.Store(uint64(ts))
	v.status.Store(uint32(StatusPending))
}

// Status returns the version's commit status.
func (v *Version) Status() Status { return Status(v.status.Load()) }

// SetStatus stores the commit status.
func (v *Version) SetStatus(s Status) { v.status.Store(uint32(s)) }

// CASStatus atomically transitions the status from old to new.
func (v *Version) CASStatus(old, new Status) bool {
	return v.status.CompareAndSwap(uint32(old), uint32(new))
}

// Next returns the next-earlier version in the list.
func (v *Version) Next() *Version { return v.next.Load() }

// SetNext stores the next pointer.
func (v *Version) SetNext(n *Version) { v.next.Store(n) }

// CASNext atomically swings the next pointer; used for sorted insertion and
// for unlinking aborted versions.
func (v *Version) CASNext(old, new *Version) bool {
	return v.next.CompareAndSwap(old, new)
}

// Inline reports whether this version is a head-embedded inline slot.
func (v *Version) Inline() bool { return v.inline }

// bindInline marks v as the head-embedded slot and points its Data at the
// head's buffer. The caller owns the slot (status is already PENDING).
func (v *Version) bindInline(data []byte) {
	v.inline = true
	v.WTS = 0
	v.rts.Store(0)
	v.next.Store(nil)
	v.Data = data
}

// clearInline returns an inline slot to the UNUSED state. The caller must
// guarantee the slot is unreachable.
func (v *Version) clearInline() {
	v.WTS = 0
	v.rts.Store(0)
	v.next.Store(nil)
	v.Data = nil
	v.status.Store(uint32(StatusUnused))
}

// Reset prepares a pooled (non-inline) version for reuse with room for size
// bytes of data.
func (v *Version) Reset(size int) {
	v.WTS = 0
	v.rts.Store(0)
	v.status.Store(uint32(StatusPending))
	v.next.Store(nil)
	if cap(v.buf) < size {
		v.buf = make([]byte, size)
	}
	v.Data = v.buf[:size]
}

// NewVersion allocates a fresh non-inline version with room for size bytes.
func NewVersion(size int) *Version {
	v := &Version{}
	v.Reset(size)
	return v
}
