package main

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestRunLoadWindowAndCounts(t *testing.T) {
	lr := runLoad(loadPlan{gens: 2, ramp: 20 * time.Millisecond, window: 250 * time.Millisecond}, func(r *runner, g *loadGen) {
		i := 0
		r.closedLoop(g, func(*spanBuf) error {
			time.Sleep(100 * time.Microsecond)
			if i++; i%10 == 0 {
				return errors.New("every tenth operation fails")
			}
			g.work.Add(2)
			return nil
		})
	})
	if lr.hung != "" {
		t.Fatalf("hung: %s", lr.hung)
	}
	if len(lr.slices) != subWindows {
		t.Errorf("%d sub-windows, want %d", len(lr.slices), subWindows)
	}
	if lr.elapsed < 250*time.Millisecond || lr.elapsed > 400*time.Millisecond {
		t.Errorf("window lasted %v, want about 250ms", lr.elapsed)
	}
	committed := lr.attempted - lr.failed
	if lr.failed == 0 || lr.failed*8 > lr.attempted || lr.work != 2*committed {
		t.Errorf("attempted %d, failed %d, work %d: want a tenth failed and work = 2 × committed", lr.attempted, lr.failed, lr.work)
	}
	if lr.commits == 0 || lr.commits > committed || lr.h.n == 0 || lr.h.n > committed {
		t.Errorf("window holds %d commits and %d latency samples of %d committed in all", lr.commits, lr.h.n, committed)
	}
	if lr.firstErr != "every tenth operation fails" {
		t.Errorf("first error %q", lr.firstErr)
	}
}

func TestRunLoadFixedWork(t *testing.T) {
	lr := runLoad(loadPlan{gens: 2, window: 50 * time.Millisecond, perGenWork: 300}, func(r *runner, g *loadGen) {
		r.closedLoop(g, func(*spanBuf) error { time.Sleep(100 * time.Microsecond); return nil })
	})
	if lr.hung != "" || lr.commits != 600 || lr.attempted != 600 {
		t.Errorf("fixed work: hung %q, %d commits, %d attempted; want 600 and 600", lr.hung, lr.commits, lr.attempted)
	}
}

func TestWatchdogStall(t *testing.T) {
	// A generator wedged inside the engine: it commits a little, then never
	// returns. The phase must be abandoned, not waited for.
	release := make(chan struct{})
	defer close(release)
	t0 := time.Now()
	lr := runLoad(loadPlan{gens: 1, window: 10 * time.Second, stall: 100 * time.Millisecond, stopWait: 100 * time.Millisecond}, func(r *runner, g *loadGen) {
		n := 0
		r.closedLoop(g, func(*spanBuf) error {
			if n++; n > 5 {
				<-release
			}
			return nil
		})
	})
	if !strings.Contains(lr.hung, "no commit") {
		t.Fatalf("hung = %q, want the stall to be reported", lr.hung)
	}
	if time.Since(t0) > 2*time.Second {
		t.Errorf("watchdog took %v", time.Since(t0))
	}
	if lr.attempted != 6 || lr.failed != 1 {
		t.Errorf("attempted %d, failed %d; want the 5 commits plus the wedged operation counted as failed", lr.attempted, lr.failed)
	}
}

func TestWatchdogStop(t *testing.T) {
	// A generator that keeps committing but ignores the stop signal.
	release := make(chan struct{})
	defer close(release)
	lr := runLoad(loadPlan{gens: 1, window: 50 * time.Millisecond, stopWait: 100 * time.Millisecond}, func(r *runner, g *loadGen) {
		for {
			select {
			case <-release:
				return
			default:
				g.attempted.Add(1)
				g.commits.Add(1)
				time.Sleep(time.Millisecond)
			}
		}
	})
	if !strings.Contains(lr.hung, "after stop") {
		t.Fatalf("hung = %q, want the ignored stop to be reported", lr.hung)
	}
}

func TestGuarded(t *testing.T) {
	if !guarded(time.Second, func() {}) {
		t.Error("a function that returns was reported as wedged")
	}
	block := make(chan struct{})
	defer close(block)
	if guarded(20*time.Millisecond, func() { <-block }) {
		t.Error("a wedged function was reported as finished")
	}
}

func TestLateness(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for _, c := range []struct {
		name                string
		due, prevDone, sent int
		want                time.Duration
	}{
		{"on time", 10, 9, 10, 0},
		{"generator woke 3 ms late", 10, 9, 13, 3 * time.Millisecond},
		{"queued behind a stalled server: not the generator's lateness", 10, 60, 60, 0},
		{"queued, then also slow to send", 10, 60, 61, time.Millisecond},
	} {
		if got := lateness(at(c.due), at(c.prevDone), at(c.sent)); got != c.want {
			t.Errorf("%s: lateness = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestOpenLoopChargesStallToQueuedRequests runs the open loop against a fake
// server that stalls once for 50 ms. The stall must appear in the latencies
// of the requests that fell due behind it (they are timed from their due
// times), and must not appear as generator lateness.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		interval = time.Millisecond
		stall    = 50 * time.Millisecond
	)
	var st openStats
	p, err := newPacer(interval, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	lr := runLoad(loadPlan{gens: 1, window: 400 * time.Millisecond}, func(r *runner, g *loadGen) {
		n := 0
		openLoop(r, g, &st, p, interval, func(*spanBuf) error {
			if n++; n == 100 {
				time.Sleep(stall)
			}
			return nil
		})
	})
	if lr.hung != "" || lr.failed != 0 {
		t.Fatalf("hung %q, %d failed (%s)", lr.hung, lr.failed, lr.firstErr)
	}
	if got := time.Duration(lr.h.max); got < stall {
		t.Errorf("slowest request took %v, want at least the %v stall", got, stall)
	}
	// Requests due 1, 2, … 49 ms into the stall waited 49, 48, … 1 ms: about
	// 40 of them waited over 10 ms. A closed-loop timer would see just one.
	slow := uint64(0)
	for i, c := range lr.h.counts {
		if lo, _ := histBounds(i); lo >= uint64(10*time.Millisecond) {
			slow += c
		}
	}
	if slow < 30 || slow > 60 {
		t.Errorf("%d requests took over 10 ms, want about 40 (the ones queued behind the stall)", slow)
	}
	if st.sloMiss < 40 {
		t.Errorf("%d requests missed the %v limit, want the ~49 behind the stall", st.sloMiss, sloLimit)
	}
	if late := time.Duration(st.late.quantile(0.99)); late > 5*time.Millisecond {
		t.Errorf("gen.late p99 = %v: the server's stall was booked as the generator's lateness", late)
	}
	// The schedule is kept: the backlog is sent at once after the stall, so
	// the count is the offered rate × the window.
	if want := uint64(400); st.windowed < want*9/10 || st.windowed > want*11/10 {
		t.Errorf("%d requests in the window, want about %d", st.windowed, want)
	}
}
