package core

import (
	"math/rand"
	"testing"
	"time"

	"cicada/internal/storage"
)

// TestRegulatorClimbsTowardOptimum feeds the hill climber a synthetic
// throughput curve with a single maximum and checks that the maximum
// backoff converges near the optimum from both directions (§3.9).
func TestRegulatorClimbsTowardOptimum(t *testing.T) {
	const optimum = 20_000 // ns
	curve := func(maxNs float64) float64 {
		// Concave with peak at optimum.
		d := maxNs - optimum
		return 1_000_000 - d*d/1e3
	}
	for _, start := range []int64{0, 100_000} {
		var r regulator
		opts := DefaultOptions(1)
		opts.BackoffStep = 1000 * time.Nanosecond
		opts.BackoffUpdatePeriod = time.Microsecond
		r.init(&opts)
		r.maxNs.Store(start)
		rng := rand.New(rand.NewSource(1))
		now := int64(0)
		commits := uint64(0)
		for i := 0; i < 3000; i++ {
			now += int64(time.Millisecond)
			commits += uint64(curve(float64(r.maxNs.Load())) / 1000)
			r.maybeAdjust(now, commits, rng)
		}
		got := float64(r.maxNs.Load())
		if got < optimum/4 || got > optimum*4 {
			t.Errorf("start %d: converged to %.0f ns, want near %d", start, got, optimum)
		}
	}
}

func TestRegulatorFixedModeNeverMoves(t *testing.T) {
	var r regulator
	opts := DefaultOptions(1)
	opts.FixedMaxBackoff = 42 * time.Microsecond
	r.init(&opts)
	rng := rand.New(rand.NewSource(1))
	now := int64(0)
	for i := 0; i < 100; i++ {
		now += int64(10 * time.Millisecond)
		r.maybeAdjust(now, uint64(i*1000), rng)
	}
	if got := r.max(); got != 42*time.Microsecond {
		t.Fatalf("fixed backoff moved to %v", got)
	}
}

func TestRegulatorClampsAtZeroAndCeiling(t *testing.T) {
	var r regulator
	opts := DefaultOptions(1)
	opts.BackoffStep = time.Millisecond
	opts.BackoffUpdatePeriod = time.Microsecond
	r.init(&opts)
	rng := rand.New(rand.NewSource(2))
	now := int64(0)
	for i := 0; i < 10_000; i++ {
		now += int64(time.Millisecond)
		r.maybeAdjust(now, uint64(i), rng) // flat throughput: random walk
		if m := r.max(); m < 0 || m > maxBackoffCeiling {
			t.Fatalf("backoff out of bounds: %v", m)
		}
	}
}

// TestBackoffFixedZeroDisables: FixedMaxBackoff = 0 must disable backoff
// entirely — immediate retries, no busy-yield spinning, no abort-time
// accounting.
func TestBackoffFixedZeroDisables(t *testing.T) {
	e := newTestEngine(1, func(o *Options) { o.FixedMaxBackoff = 0 })
	w := e.Worker(0)
	if got := e.MaxBackoff(); got != 0 {
		t.Fatalf("regulated max = %v; want 0", got)
	}
	before := e.Stats()
	start := time.Now()
	for i := 0; i < 1000; i++ {
		w.backoff()
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("1000 disabled backoffs took %v; want immediate returns", elapsed)
	}
	after := e.Stats()
	if after.AbortTime != before.AbortTime {
		t.Fatalf("disabled backoff accounted %v abort time", after.AbortTime-before.AbortTime)
	}
	if got := w.stats.backoffs.Load(); got != 1000 {
		t.Fatalf("backoff events = %d; want 1000", got)
	}
}

// TestRegulatorCeilingUnderPositiveGradient: a throughput curve that rewards
// every backoff increase pushes the hill climber upward forever; the maximum
// must clamp at maxBackoffCeiling and never exceed it.
func TestRegulatorCeilingUnderPositiveGradient(t *testing.T) {
	var r regulator
	opts := DefaultOptions(1)
	opts.BackoffStep = time.Millisecond
	opts.BackoffUpdatePeriod = time.Microsecond
	r.init(&opts)
	rng := rand.New(rand.NewSource(5))
	now := int64(0)
	commits := uint64(0)
	hitCeiling := false
	for i := 0; i < 2000; i++ {
		now += int64(time.Millisecond)
		// Throughput strictly increasing in the current maximum: the
		// gradient stays positive whenever the maximum moved up.
		commits += uint64(r.maxNs.Load()/1000) + 1
		r.maybeAdjust(now, commits, rng)
		if m := r.max(); m > maxBackoffCeiling {
			t.Fatalf("step %d: max backoff %v exceeds ceiling %v", i, m, maxBackoffCeiling)
		} else if m == maxBackoffCeiling {
			hitCeiling = true
		}
	}
	if !hitCeiling {
		t.Fatalf("climber never reached the ceiling; final max %v", r.max())
	}
}

// TestContentionSortOrdersHotFirst verifies that the partial write-set sort
// places the records with the largest latest-version wts first (§3.5).
func TestContentionSortOrdersHotFirst(t *testing.T) {
	e := newTestEngine(1, nil)
	tbl := e.CreateTable("t")
	w := e.Worker(0)
	const n = 20
	rids := make([]storage.RecordID, n)
	for i := range rids {
		rids[i] = mustInsert(t, w, tbl, []byte{byte(i)})
	}
	// Touch records in a known order so their latest wts increases with i.
	for i := 0; i < n; i++ {
		i := i
		if err := w.Run(func(tx *Txn) error {
			buf, err := tx.Update(tbl, rids[i], -1)
			if err != nil {
				return err
			}
			buf[0]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	tx := w.Begin()
	// Stage writes in ascending-contention order; the sort must reverse the
	// head of the list.
	for i := 0; i < n; i++ {
		if _, err := tx.Update(tbl, rids[i], -1); err != nil {
			t.Fatal(err)
		}
	}
	tx.sortWriteSetByContention()
	// The first contentionSortK entries must be the k hottest (largest i),
	// in descending order.
	for j := 0; j < contentionSortK; j++ {
		a := &tx.accesses[tx.writes[j]]
		wantRid := rids[n-1-j]
		if a.rid != wantRid {
			t.Fatalf("sorted position %d has rid %d, want %d", j, a.rid, wantRid)
		}
	}
	tx.Abort()
}

// TestAdaptiveSkipAfterCommitStreak: after AdaptiveSkipThreshold consecutive
// commits a worker skips sorting/precheck; one abort resets the streak.
func TestAdaptiveSkipAfterCommitStreak(t *testing.T) {
	e := newTestEngine(2, nil)
	tbl := e.CreateTable("t")
	w := e.Worker(0)
	rid := mustInsert(t, w, tbl, []byte{0})
	threshold := e.Options().AdaptiveSkipThreshold
	for i := 0; i < threshold+2; i++ {
		if err := w.Run(func(tx *Txn) error {
			buf, err := tx.Update(tbl, rid, -1)
			if err != nil {
				return err
			}
			buf[0]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if w.consecutiveCommits < threshold {
		t.Fatalf("streak %d below threshold %d", w.consecutiveCommits, threshold)
	}
	// Force a conflict abort via a later-timestamp read.
	writer := w.Begin()
	if err := e.Worker(1).Run(func(tx *Txn) error {
		_, err := tx.Read(tbl, rid)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Update(tbl, rid, -1); err == nil {
		if err := writer.Commit(); err == nil {
			t.Fatal("expected conflict")
		}
	}
	if w.consecutiveCommits != 0 {
		t.Fatalf("streak not reset: %d", w.consecutiveCommits)
	}
}

// TestBackoffRespectsRegulatedMax: worker backoff sleeps never exceed the
// regulated maximum by more than scheduling noise.
func TestBackoffRespectsRegulatedMax(t *testing.T) {
	e := newTestEngine(1, func(o *Options) { o.FixedMaxBackoff = 200 * time.Microsecond })
	w := e.Worker(0)
	start := time.Now()
	for i := 0; i < 50; i++ {
		w.backoff()
	}
	if elapsed := time.Since(start); elapsed > 200*time.Microsecond*50*4 {
		t.Fatalf("50 backoffs took %v", elapsed)
	}
}

// TestEarlyConsistencyCheckCatchesStaleRead: with the precheck enabled, a
// transaction whose read was invalidated aborts before installing versions.
func TestEarlyConsistencyCheckCatchesStaleRead(t *testing.T) {
	e := newTestEngine(2, nil)
	tbl := e.CreateTable("t")
	w0, w1 := e.Worker(0), e.Worker(1)
	rid := mustInsert(t, w0, tbl, []byte{1})
	other := mustInsert(t, w0, tbl, []byte{1})

	tx := w0.Begin()
	if _, err := tx.Read(tbl, rid); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Update(tbl, other, -1); err != nil {
		t.Fatal(err)
	}
	// A later transaction overwrites the read record and commits; since its
	// timestamp is later, our read of the old version stays valid — commit
	// must SUCCEED (multi-version!).
	if err := w1.Run(func(tx2 *Txn) error {
		buf, err := tx2.Update(tbl, rid, -1)
		if err != nil {
			return err
		}
		buf[0] = 9
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("multi-version commit failed: %v", err)
	}
}
