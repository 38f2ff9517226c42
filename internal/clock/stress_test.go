package clock

import (
	"sync"
	"testing"
	"time"
)

// TestConcurrentSyncAndAllocation stresses one-sided synchronization racing
// timestamp allocation and watermark updates: monotonicity per worker and
// watermark safety must hold throughout.
func TestConcurrentSyncAndAllocation(t *testing.T) {
	const workers = 6
	d := NewDomain(workers, Options{SyncInterval: time.Microsecond})
	var wg sync.WaitGroup
	lastTS := make([]Timestamp, workers)
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var prev Timestamp
			for i := 0; i < 20000; i++ {
				ts := d.NewWriteTimestamp(id, d.Now())
				if ts <= prev {
					t.Errorf("worker %d: %v not after %v", id, ts, prev)
					return
				}
				prev = ts
				if i%64 == 0 {
					d.MaybeSync(id, d.Now())
					d.RefreshRead(id)
				}
				if id == 0 && i%128 == 0 {
					minW, minR := d.UpdateMins()
					if minR >= minW {
						t.Errorf("min_rts %v not below min_wts %v", minR, minW)
						return
					}
				}
			}
			lastTS[id] = prev
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Final watermark must not exceed any worker's last timestamp... it is
	// the minimum of CURRENT wts, all of which are the last allocations.
	minW, _ := d.UpdateMins()
	for id, ts := range lastTS {
		if minW > ts {
			t.Fatalf("min_wts %v beyond worker %d last ts %v", minW, id, ts)
		}
	}
}

// TestWatermarkMonotoneUnderRace hammers allocation and read-refresh on all
// workers while a single maintenance goroutine (mirroring the engine's
// leader) recomputes the watermarks: min_wts and min_rts must never move
// backwards and min_rts must stay strictly below min_wts. Run with -race and
// -tags cicada_invariants to also arm the in-clock assertions.
func TestWatermarkMonotoneUnderRace(t *testing.T) {
	const workers = 4
	d := NewDomain(workers, Options{SyncInterval: time.Microsecond})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				d.NewWriteTimestamp(id, d.Now())
				if i%32 == 0 {
					d.MaybeSync(id, d.Now())
					d.RefreshRead(id)
				}
			}
		}(id)
	}
	rounds := 4000
	if testing.Short() {
		rounds = 500
	}
	var prevW, prevR Timestamp
	for i := 0; i < rounds; i++ {
		minW, minR := d.UpdateMins()
		if minW < prevW {
			t.Fatalf("round %d: min_wts moved backwards: %v then %v", i, prevW, minW)
		}
		if minR < prevR {
			t.Fatalf("round %d: min_rts moved backwards: %v then %v", i, prevR, minR)
		}
		if minR >= minW {
			t.Fatalf("round %d: min_rts %v not below min_wts %v", i, minR, minW)
		}
		prevW, prevR = minW, minR
	}
	close(stop)
	wg.Wait()
}

// TestBoostExceedsResidualSkew: after an abort the boosted timestamp is
// ahead of a freshly synchronized peer's next timestamp (the purpose of
// temporary clock boosting).
func TestBoostExceedsResidualSkew(t *testing.T) {
	d := NewDomain(2, Options{Boost: 10 * time.Millisecond, SyncInterval: time.Nanosecond})
	// Peer allocates, we sync, then we get boosted.
	peer := d.NewWriteTimestamp(1, d.Now())
	time.Sleep(time.Microsecond)
	d.MaybeSync(0, d.Now())
	d.OnAbort(0)
	boosted := d.NewWriteTimestamp(0, d.Now())
	if boosted.ClockValue() <= peer.ClockValue() {
		t.Fatalf("boosted %v not ahead of peer %v", boosted, peer)
	}
	// And it exceeds the peer's next few natural allocations.
	for i := 0; i < 3; i++ {
		if p := d.NewWriteTimestamp(1, d.Now()); p.ClockValue() > boosted.ClockValue() {
			t.Fatalf("peer %v overtook boost %v immediately", p, boosted)
		}
	}
}

// TestAdvanceAllPast: used by recovery; all future timestamps across all
// workers exceed the replayed maximum.
func TestAdvanceAllPast(t *testing.T) {
	d := NewDomain(4, Options{})
	target := Compose(1<<40, 3)
	d.AdvanceAllPast(target)
	for id := 0; id < 4; id++ {
		if ts := d.NewWriteTimestamp(id, d.Now()); ts <= target {
			t.Fatalf("worker %d ts %v not past %v", id, ts, target)
		}
	}
	if d.MinWTS() <= 0 {
		t.Fatal("min_wts not updated")
	}
}
