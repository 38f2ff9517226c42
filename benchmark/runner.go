package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Every workload's load phase runs under one coordinator: a ramp, then a
// measured window cut into consecutive slices (sub-windows), with a watchdog
// that turns a wedged engine into counted failures instead of a wedged
// benchmark.

const (
	rampTime = 2 * time.Second
	// subWindows is how many slices a timed window has: 0.4 s each at the
	// default 10 s. The issue proposed five; calibration chose 25, because a
	// percentile of a long slice is set by how many of the server's
	// millisecond stalls fall into it — server_open's p99 spread over ten
	// runs was 33 % with five slices and 11 % with 25 — while a median over
	// many short slices reports the typical slice.
	subWindows = 25
	stallLimit = 5 * time.Second  // no commit for this long ⇒ hung
	stopLimit  = 10 * time.Second // goroutines still running this long after stop ⇒ hung
	pollEvery  = 20 * time.Millisecond
	// maxSlices bounds the per-slice histograms a generator keeps. A timed
	// window has subWindows slices; a fixed-work phase has as many as it
	// takes, and any beyond maxSlices share the last histogram.
	maxSlices = 64
	// The phase word: 0 during the ramp, then 1 + the index of the current
	// slice of the window, then phaseStop.
	phaseStop = -1
)

// loadGen is one load-generating goroutine's state. The counters are atomic
// because the coordinator samples them while the goroutine runs; the
// histogram and span buffer are read only after it has stopped.
type loadGen struct {
	id        int
	commits   atomic.Uint64
	work      atomic.Uint64 // committed workload-defined units (RMW requests, puts) for verification
	attempted atomic.Uint64
	failed    atomic.Uint64
	firstErr  atomic.Pointer[string]
	hs        [maxSlices]hist // latencies, one histogram per slice of the window
	spans     *spanBuf        // nil when the run is untraced
	_         [64]byte        // keep neighbouring generators' counters off one line
}

// fail counts one failed operation and remembers the first message.
func (g *loadGen) fail(err error) {
	g.failed.Add(1)
	if g.firstErr.Load() == nil {
		s := err.Error()
		g.firstErr.CompareAndSwap(nil, &s)
	}
}

// loadPlan describes one load phase.
type loadPlan struct {
	gens   int
	ramp   time.Duration
	window time.Duration // measured time; with perGenWork it is only the slice clock
	// perGenWork > 0 makes the phase fixed-work: every generator stops after
	// that many commits and the window ends when all have.
	perGenWork uint64
	tracer     *tracer // nil for the measured run
	// The watchdog's patience; zero means stallLimit and stopLimit. Only the
	// watchdog's own tests shorten them.
	stall, stopWait time.Duration
}

// sliceStat is one complete slice (sub-window) of the window. Every metric
// is computed per slice and reported as the median over the slices, so an
// interference burst that covers one or two slices does not move it.
type sliceStat struct {
	elapsed time.Duration
	commits uint64
	cpu     time.Duration
	mallocs uint64
	traced  bool
	h       hist
}

func (s *sliceStat) rate() float64 { return float64(s.commits) / s.elapsed.Seconds() }

// loadResult is what the coordinator measured.
type loadResult struct {
	elapsed   time.Duration // of the window
	commits   uint64        // inside the window
	slices    []sliceStat   // the complete slices, in order
	h         hist          // every latency sample of the window
	attempted uint64        // whole load phase, ramp included
	failed    uint64
	work      uint64 // sum of the generators' work counters
	firstErr  string
	hung      string // empty, or why the phase was abandoned
}

// over returns f of every complete slice.
func (l *loadResult) over(f func(*sliceStat) float64) []float64 {
	out := make([]float64, len(l.slices))
	for i := range l.slices {
		out[i] = f(&l.slices[i])
	}
	return out
}

// runner hands the phase to the generator goroutines.
type runner struct {
	plan  loadPlan
	phase atomic.Int32
	gens  []*loadGen
}

func (r *runner) stopped() bool { return r.phase.Load() == phaseStop }

// slice returns the index of the histogram the current moment belongs to, or
// -1 outside the window.
func (r *runner) slice() int {
	return min(int(r.phase.Load()), maxSlices) - 1
}

// closedLoop is the body of a closed-loop generator: one transaction at a
// time, the next only after the previous returned. do runs one transaction
// including its conflict retries; tr is nil unless this one is traced.
func (r *runner) closedLoop(g *loadGen, do func(tr *spanBuf) error) {
	var done uint64
	for !r.stopped() && (r.plan.perGenWork == 0 || done < r.plan.perGenWork) {
		tr := g.spans.sample()
		t0 := time.Now()
		tr.begin(spTxn)
		err := do(tr)
		tr.end()
		d := time.Since(t0)
		g.attempted.Add(1)
		if err != nil {
			g.fail(err)
			continue
		}
		done++
		g.commits.Add(1)
		if s := r.slice(); s >= 0 {
			g.hs[s].record(int64(d))
		}
	}
}

// snapshot is the commit count with the time it was read.
func (r *runner) snapshot() (now time.Time, commits uint64) {
	commits, _, _ = r.totals()
	return time.Now(), commits
}

func (r *runner) totals() (commits, attempted, failed uint64) {
	for _, g := range r.gens {
		commits += g.commits.Load()
		attempted += g.attempted.Load()
		failed += g.failed.Load()
	}
	return
}

// runLoad starts plan.gens goroutines running body and coordinates the
// phase. body must return soon after r.stopped() turns true.
func runLoad(plan loadPlan, body func(r *runner, g *loadGen)) loadResult {
	if plan.stall == 0 {
		plan.stall = stallLimit
	}
	if plan.stopWait == 0 {
		plan.stopWait = stopLimit
	}
	r := &runner{plan: plan}
	for i := 0; i < plan.gens; i++ {
		g := &loadGen{id: i}
		if plan.tracer != nil {
			g.spans = plan.tracer.buf()
		}
		r.gens = append(r.gens, g)
	}
	var wg sync.WaitGroup
	allDone := make(chan struct{})
	for _, g := range r.gens {
		wg.Add(1)
		go func(g *loadGen) {
			defer wg.Done()
			body(r, g)
		}(g)
	}
	go func() {
		wg.Wait()
		close(allDone)
	}()

	var res loadResult
	// waitUntil sleeps until t, polling the commit counters for the
	// watchdog. It reports false if the generators all returned first or if
	// no commit arrived for plan.stall (res.hung is then set).
	lastProgress, lastCommits := time.Now(), uint64(0)
	waitUntil := func(t time.Time) bool {
		for {
			now := time.Now()
			if commits, _, _ := r.totals(); commits != lastCommits {
				lastCommits, lastProgress = commits, now
			} else if now.Sub(lastProgress) > plan.stall {
				res.hung = fmt.Sprintf("no commit for %v", plan.stall)
				return false
			}
			left := t.Sub(now)
			if left <= 0 {
				return true
			}
			if left > pollEvery {
				left = pollEvery
			}
			select {
			case <-time.After(left):
			case <-allDone:
				return false
			}
		}
	}

	if waitUntil(time.Now().Add(plan.ramp)) {
		w0, w0Commits := r.snapshot()
		slice := plan.window / subWindows
		start, base, cpu0, mallocs0 := w0, w0Commits, cpuTime(), mallocs()
		for i := 0; plan.perGenWork > 0 || i < subWindows; i++ {
			// Traced and untraced slices alternate inside one traced run,
			// so trace.overhead_frac compares like with like.
			traced := plan.tracer != nil && i%2 == 0
			if plan.tracer != nil {
				plan.tracer.enabled.Store(traced)
			}
			r.phase.Store(int32(1 + i))
			if !waitUntil(start.Add(slice)) {
				break // fixed work done, or hung: the partial slice is not a sample
			}
			now, commits := r.snapshot()
			cpu1, mallocs1 := cpuTime(), mallocs()
			res.slices = append(res.slices, sliceStat{
				elapsed: now.Sub(start), commits: commits - base,
				cpu: cpu1 - cpu0, mallocs: mallocs1 - mallocs0, traced: traced,
			})
			start, base, cpu0, mallocs0 = now, commits, cpu1, mallocs1
		}
		end, commits := r.snapshot()
		res.elapsed = end.Sub(w0)
		res.commits = commits - w0Commits
	}
	r.phase.Store(phaseStop)
	if plan.tracer != nil {
		plan.tracer.enabled.Store(false)
	}
	stop := time.NewTimer(plan.stopWait)
	defer stop.Stop()
	select {
	case <-allDone:
		for _, g := range r.gens {
			for i := range g.hs {
				res.h.merge(&g.hs[i])
				if i < len(res.slices) {
					res.slices[i].h.merge(&g.hs[i])
				}
			}
		}
	case <-stop.C:
		// The goroutines are abandoned (they may spin forever inside the
		// engine); their histograms are still being written, so only the
		// atomic counters are read.
		if res.hung == "" {
			res.hung = fmt.Sprintf("generators still running %v after stop", plan.stopWait)
		}
	}
	_, res.attempted, res.failed = r.totals()
	for _, g := range r.gens {
		res.work += g.work.Load()
		if p := g.firstErr.Load(); p != nil && res.firstErr == "" {
			res.firstErr = *p
		}
	}
	if res.hung != "" {
		// Each generator had one operation in flight that never returned.
		res.attempted += uint64(plan.gens)
		res.failed += uint64(plan.gens)
	}
	return res
}

// overheadFrac is 1 − traced÷untraced throughput over the alternating slices
// of a traced run; 0 when either side has no complete slice.
func (l *loadResult) overheadFrac() float64 {
	var on, off []float64
	for i := range l.slices {
		if s := &l.slices[i]; s.traced {
			on = append(on, s.rate())
		} else {
			off = append(off, s.rate())
		}
	}
	if len(on) == 0 || len(off) == 0 || median(off) == 0 {
		return 0
	}
	return 1 - median(on)/median(off)
}

// guarded runs fn with a deadline. A workload that wedges outside its load
// phase (a load or a verification scan spinning inside the engine) is
// abandoned rather than left to wedge the whole benchmark.
func guarded(limit time.Duration, fn func()) (ok bool) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// settle returns memory from the previous workload and lets background
// goroutines drain before the next measurement starts.
func settle() {
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
}
