package main

import (
	"errors"
	"time"

	"cicada/internal/client"
)

// openStats is one open-loop generator's accounting over the window.
type openStats struct {
	late     hist // how late the generator itself sent (see lateness)
	sloMiss  uint64
	windowed uint64 // requests completed inside the window
}

// openLoop sends on a fixed schedule whatever the server does: request i is
// due at start + i·interval, and its latency runs from that due time, so a
// stall charges every request queued behind it. The connection is
// synchronous, so a request that falls due while the previous one is
// outstanding waits in a virtual queue; that wait is the server's doing and
// is in the latency. A failed or refused request misses the latency limit.
func openLoop(r *runner, lg *loadGen, st *openStats, p *pacer, interval time.Duration, send func(tr *spanBuf) error) {
	prevDone := p.start
	for i := 1; !r.stopped(); i++ {
		due := p.start.Add(time.Duration(i) * interval)
		if !p.waitFor(due, r) {
			return
		}
		tr := lg.spans.sample()
		tr.begin(spTxn)
		sent := time.Now()
		err := send(tr)
		done := time.Now()
		tr.end()
		lg.attempted.Add(1)
		if err != nil {
			lg.fail(err)
		} else {
			lg.commits.Add(1)
		}
		if s := r.slice(); s >= 0 {
			lat := done.Sub(due)
			lg.hs[s].record(int64(lat))
			st.late.record(int64(lateness(due, prevDone, sent)))
			st.windowed++
			if err != nil || lat > sloLimit {
				st.sloMiss++
			}
		}
		prevDone = done
		var se *client.ServerError
		if err != nil && !errors.As(err, &se) {
			return // transport error: the connection is gone
		}
	}
}

// lateness is the generator's own scheduling error for one request: how long
// after it was free to send — the later of the due time and the previous
// response — it actually sent. Time spent queued behind a stalled server is
// not the generator's and is not counted here.
func lateness(due, prevDone, sent time.Time) time.Duration {
	free := due
	if prevDone.After(due) {
		free = prevDone
	}
	return sent.Sub(free)
}

// waitFor waits until t on the pacer's ticks (tick k is request k's due
// time, give or take a syscall), busy-waiting only the last few
// microseconds. It reports false if the run stopped or the pacer failed.
func (p *pacer) waitFor(t time.Time, r *runner) bool {
	for {
		left := time.Until(t)
		if left <= 0 {
			return true
		}
		if r.stopped() {
			return false
		}
		if left > 20*time.Microsecond && p.tick() != nil {
			return false
		}
	}
}
