package clock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestComposeRoundTrip(t *testing.T) {
	f := func(clockVal uint64, id uint8) bool {
		ts := Compose(clockVal, int(id))
		return ts.WorkerID() == int(id) && ts.ClockValue() == clockVal&clockMask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimestampOrderingByClock(t *testing.T) {
	f := func(a, b uint32, ida, idb uint8) bool {
		tsa := Compose(uint64(a), int(ida))
		tsb := Compose(uint64(b), int(idb))
		if a < b && tsa >= tsb {
			return false
		}
		if a > b && tsa <= tsb {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPerWorkerMonotonic(t *testing.T) {
	d := NewDomain(4, Options{})
	for id := 0; id < 4; id++ {
		prev := Timestamp(0)
		for i := 0; i < 10000; i++ {
			ts := d.NewWriteTimestamp(id, d.Now())
			if ts <= prev {
				t.Fatalf("worker %d: timestamp %v not after %v", id, ts, prev)
			}
			if ts.WorkerID() != id {
				t.Fatalf("worker %d: timestamp carries id %d", id, ts.WorkerID())
			}
			prev = ts
		}
	}
}

// TestSameReadingStillMonotonic: the envelope hands one reading to several
// consumers, so two allocations may see the same one; timestamps must still
// be strictly increasing.
func TestSameReadingStillMonotonic(t *testing.T) {
	d := NewDomain(2, Options{})
	now := d.Now()
	first := d.NewWriteTimestamp(0, now)
	second := d.NewWriteTimestamp(0, now)
	if second <= first {
		t.Fatalf("same reading: timestamp %v not after %v", second, first)
	}
}

// TestReadingJumpClamped: a reading that jumps past MaxIncrement advances the
// clock by exactly MaxIncrement.
func TestReadingJumpClamped(t *testing.T) {
	d := NewDomain(1, Options{MaxIncrement: time.Millisecond})
	base := d.NewWriteTimestamp(0, 10)
	jumped := d.NewWriteTimestamp(0, 10+int64(time.Hour))
	if got := jumped.ClockValue() - base.ClockValue(); got != uint64(time.Millisecond) {
		t.Fatalf("clock advanced %d ticks over a 1 h jump; want MaxIncrement = %d", got, time.Millisecond)
	}
}

// TestMaybeSyncOncePerInterval: synchronization fires once per SyncInterval
// of the supplied readings and not before.
func TestMaybeSyncOncePerInterval(t *testing.T) {
	const interval = 100 * time.Microsecond
	d := NewDomain(2, Options{SyncInterval: interval})
	fired := 0
	for now := int64(0); now <= int64(10*interval); now += int64(interval / 4) {
		if d.MaybeSync(0, now) {
			fired++
			if now%int64(interval) != 0 || now == 0 {
				t.Fatalf("sync fired at reading %d, inside an interval", now)
			}
		}
	}
	if fired != 10 {
		t.Fatalf("sync fired %d times over 10 intervals; want 10", fired)
	}
}

func TestUniqueAcrossWorkers(t *testing.T) {
	const workers = 8
	const perWorker = 5000
	d := NewDomain(workers, Options{})
	results := make([][]Timestamp, workers)
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			out := make([]Timestamp, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				out = append(out, d.NewWriteTimestamp(id, d.Now()))
			}
			results[id] = out
		}(id)
	}
	wg.Wait()
	seen := make(map[Timestamp]struct{}, workers*perWorker)
	for _, r := range results {
		for _, ts := range r {
			if _, dup := seen[ts]; dup {
				t.Fatalf("duplicate timestamp %v", ts)
			}
			seen[ts] = struct{}{}
		}
	}
}

func TestCentralizedUnique(t *testing.T) {
	const workers = 4
	const perWorker = 5000
	d := NewDomain(workers, Options{Centralized: true})
	if !d.Centralized() {
		t.Fatal("expected centralized domain")
	}
	var mu sync.Mutex
	seen := make(map[Timestamp]struct{}, workers*perWorker)
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ts := d.NewWriteTimestamp(id, d.Now())
				mu.Lock()
				if _, dup := seen[ts]; dup {
					mu.Unlock()
					t.Errorf("duplicate timestamp %v", ts)
					return
				}
				seen[ts] = struct{}{}
				mu.Unlock()
			}
		}(id)
	}
	wg.Wait()
}

func TestBoostRaisesTimestamp(t *testing.T) {
	d := NewDomain(2, Options{Boost: time.Millisecond})
	base := d.NewWriteTimestamp(0, d.Now())
	d.OnAbort(0)
	boosted := d.NewWriteTimestamp(0, d.Now())
	// The boosted timestamp must jump by at least the boost amount minus the
	// natural tick (which is tiny compared to 1ms).
	if boosted.ClockValue()-base.ClockValue() < uint64(time.Millisecond)/2 {
		t.Fatalf("boost not applied: base %v boosted %v", base, boosted)
	}
	d.OnCommit(0)
	after := d.NewWriteTimestamp(0, d.Now())
	if after.ClockValue()-boosted.ClockValue() >= uint64(time.Millisecond)/2 {
		t.Fatalf("boost not cleared: boosted %v after %v", boosted, after)
	}
}

func TestOneSidedSyncCatchesUp(t *testing.T) {
	d := NewDomain(2, Options{SyncInterval: time.Nanosecond})
	// Make worker 1 far ahead.
	d.workers[1].clock.Store(uint64(10 * time.Second))
	before := d.workers[0].clock.Load()
	// Worker 0 syncs round-robin; with 2 workers its first target is 1.
	time.Sleep(time.Microsecond)
	if !d.MaybeSync(0, d.Now()) {
		t.Fatal("sync did not trigger")
	}
	after := d.workers[0].clock.Load()
	if after <= before || after < uint64(10*time.Second) {
		t.Fatalf("slow clock did not catch up: before %d after %d", before, after)
	}
}

func TestSyncNeverPullsBack(t *testing.T) {
	d := NewDomain(2, Options{SyncInterval: time.Nanosecond})
	d.workers[0].clock.Store(uint64(10 * time.Second))
	time.Sleep(time.Microsecond)
	d.MaybeSync(0, d.Now()) // remote clock (worker 1) is behind
	if got := d.workers[0].clock.Load(); got < uint64(10*time.Second) {
		t.Fatalf("fast clock pulled back to %d", got)
	}
}

func TestMinWTSNeverExceedsActive(t *testing.T) {
	d := NewDomain(4, Options{})
	var tss [4]Timestamp
	for id := 0; id < 4; id++ {
		tss[id] = d.NewWriteTimestamp(id, d.Now())
	}
	minW, minR := d.UpdateMins()
	for id := 0; id < 4; id++ {
		if minW > tss[id] {
			t.Fatalf("min_wts %v exceeds worker %d wts %v", minW, id, tss[id])
		}
	}
	if minR >= minW {
		t.Fatalf("min_rts %v not below min_wts %v", minR, minW)
	}
}

func TestReadTimestampBelowMinWTS(t *testing.T) {
	d := NewDomain(3, Options{})
	for i := 0; i < 100; i++ {
		for id := 0; id < 3; id++ {
			d.NewWriteTimestamp(id, d.Now())
		}
	}
	d.UpdateMins()
	for id := 0; id < 3; id++ {
		d.RefreshRead(id)
		rts := d.ReadTimestamp(id)
		if rts >= d.MinWTS() {
			t.Fatalf("worker %d read ts %v not below min_wts %v", id, rts, d.MinWTS())
		}
	}
	// min_rts must follow.
	_, minR := d.UpdateMins()
	if minR >= d.MinWTS() {
		t.Fatalf("min_rts %v not below min_wts %v", minR, d.MinWTS())
	}
}

func TestUpdateMinsMonotonic(t *testing.T) {
	d := NewDomain(2, Options{})
	prevW, prevR := d.UpdateMins()
	for i := 0; i < 1000; i++ {
		d.NewWriteTimestamp(0, d.Now())
		d.NewWriteTimestamp(1, d.Now())
		d.RefreshRead(0)
		d.RefreshRead(1)
		w, r := d.UpdateMins()
		if w < prevW || r < prevR {
			t.Fatalf("watermarks moved backwards: %v->%v %v->%v", prevW, w, prevR, r)
		}
		prevW, prevR = w, r
	}
}

func TestAdvanceForCausality(t *testing.T) {
	d := NewDomain(2, Options{})
	remote := d.NewWriteTimestamp(1, d.Now())
	// Worker 1 races far ahead.
	d.workers[1].clock.Store(uint64(time.Hour))
	remote = d.NewWriteTimestamp(1, d.Now())
	d.AdvanceForCausality(0, remote)
	local := d.NewWriteTimestamp(0, d.Now())
	if local <= remote {
		t.Fatalf("causal timestamp %v not after %v", local, remote)
	}
}

func TestNewDomainBounds(t *testing.T) {
	for _, n := range []int{0, -1, MaxWorkers + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDomain(%d) did not panic", n)
				}
			}()
			NewDomain(n, Options{})
		}()
	}
}
