package main

import (
	"fmt"
	"sort"
	"time"
)

// runOpts are one run's inputs: everything else about a workload is frozen
// in params.go.
type runOpts struct {
	seed   uint64
	window time.Duration // --seconds: the measured window (five sub-windows)
	tracer *tracer       // nil for the measured run; set for the traced run
}

func (o runOpts) traced() bool { return o.tracer != nil }

// outcome is one run of one workload.
type outcome struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Hung      string             `json:"hung,omitempty"`
	Attempted uint64             `json:"ops_attempted"`
	Failed    uint64             `json:"ops_failed"`
	FirstErr  string             `json:"first_error,omitempty"`
	VerifyErr string             `json:"verify_error,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Detail carries what the tables print beside the named metrics:
	// sub-window min/max, the highest supported percentile, sample counts.
	Detail map[string]float64 `json:"detail,omitempty"`
	// SubWindows holds each per-slice metric's value in every complete
	// slice; the end-to-end value is their median.
	SubWindows map[string][]float64 `json:"sub_windows,omitempty"`
	Tail       string               `json:"tail_percentile,omitempty"`
	Env        envInfo              `json:"env"`
}

func (out *outcome) set(name string, v float64) {
	if _, ok := endToEndByName[name]; ok {
		out.EndToEnd[name] = v
		return
	}
	if _, ok := perLayerByName[name]; !ok {
		panic("benchmark: metric not in the catalogue: " + name)
	}
	out.PerLayer[name] = v
}

// instance is a workload that has been set up.
type instance interface {
	// load runs the ramp and the measured window.
	load(o runOpts) loadResult
	// finish runs after the generators stopped: it verifies the outputs
	// (returning the first mismatch) and records the workload's own
	// metrics. liveBytes is the user data the instance holds, for space_amp.
	finish(o runOpts, lr *loadResult, out *outcome) error
	liveBytes() uint64
	close()
}

type workload struct {
	name  string
	why   string
	setup func(o runOpts) (instance, error)
}

const (
	// setup_s is the median of the run's set-ups: at least setupRepeats of
	// them, and for a workload that sets up in a fraction of a second as
	// many as fit into setupBudget (at most setupMost), because a 0.2 s
	// set-up timed three times moves by a quarter when a neighbour wakes up.
	setupRepeats = 3
	setupMost    = 9
	setupBudget  = 2.0               // seconds
	runLimit     = 150 * time.Second // a run wedged outside its load phase is abandoned here
)

// runWorkload is one complete run: set up, load phase, verification, and the
// extra set-ups that make setup_s a median.
func runWorkload(w workload, o runOpts) *outcome {
	out := &outcome{
		Workload: w.name, Seed: o.seed, Traced: o.traced(), Env: readEnv(),
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}, Detail: map[string]float64{},
	}
	var setups []float64
	complete := false
	finished := guarded(runLimit, func() {
		settle()
		t0 := time.Now()
		inst, err := w.setup(o)
		if err != nil {
			out.FirstErr = "set-up: " + err.Error()
			out.Attempted, out.Failed = 1, 1
			return
		}
		setups = append(setups, time.Since(t0).Seconds())

		lr := inst.load(o)
		out.Attempted, out.Failed, out.FirstErr, out.Hung = lr.attempted, lr.failed, lr.firstErr, lr.hung
		commonMetrics(&lr, out)
		if lr.hung != "" {
			return // the generators may still be inside the engine: touch nothing
		}
		if !o.traced() {
			out.set("space_amp", float64(heapInuseAfterGC())/float64(inst.liveBytes()))
		}
		if err := inst.finish(o, &lr, out); err != nil {
			out.VerifyErr = err.Error()
			out.Attempted++
			out.Failed++
		}
		inst.close()
		inst = nil

		// A traced run reports no set-up time, so it sets up once.
		for !o.traced() && (len(setups) < setupRepeats || (len(setups) < setupMost && sum(setups) < setupBudget)) {
			settle()
			t0 := time.Now()
			again, err := w.setup(o)
			if err != nil {
				out.FirstErr = "repeated set-up: " + err.Error()
				out.Attempted++
				out.Failed++
				return
			}
			setups = append(setups, time.Since(t0).Seconds())
			again.close()
		}
		complete = true
	})
	if !finished {
		// The abandoned goroutine may still be writing to out: report from
		// a fresh outcome and never touch the old one again.
		return &outcome{
			Workload: w.name, Seed: o.seed, Traced: o.traced(), Env: readEnv(),
			Hung: fmt.Sprintf("run still going after %v", runLimit), Attempted: 1, Failed: 1,
		}
	}
	out.set("setup_s", median(setups))
	if o.traced() {
		out.EndToEnd = nil // never quote an end-to-end number from a traced run
	}
	out.Correct = complete && out.Hung == "" && out.VerifyErr == ""
	return out
}

// commonMetrics derives the end-to-end metrics every workload shares from
// the load phase, and in a traced run the tracing overhead.
func commonMetrics(lr *loadResult, out *outcome) {
	// Every metric is computed per sub-window and the run reports the best
	// sub-window but one (bestButOne says why); the median and the worst are
	// printed beside it and every value is in the JSON outcome. The names
	// route each value to the run's kind: the p99 is a per-layer metric, so
	// only the traced run keeps it.
	out.SubWindows = map[string][]float64{
		"txn_per_s":      lr.over((*sliceStat).rate),
		"txn_p50_us":     lr.over(func(s *sliceStat) float64 { return s.h.quantile(0.50) / 1e3 }),
		"txn_p99_us":     lr.over(func(s *sliceStat) float64 { return s.h.quantile(0.99) / 1e3 }),
		"cpu_us_per_txn": lr.over(func(s *sliceStat) float64 { return float64(s.cpu) / 1e3 / float64(max(s.commits, 1)) }),
		"allocs_per_txn": lr.over(func(s *sliceStat) float64 { return float64(s.mallocs) / float64(max(s.commits, 1)) }),
	}
	for name, xs := range out.SubWindows {
		higher := endToEndByName[name].Better == "higher"
		out.set(name, bestButOne(xs, higher))
		out.Detail[name+"_median"] = median(xs)
		best, worst := minMax(xs)
		if higher {
			best, worst = worst, best
		}
		out.Detail[name+"_best"], out.Detail[name+"_worst"] = best, worst
	}
	out.set("txn_p99_window_us", lr.h.quantile(0.99)/1e3)
	out.set("trace.overhead_frac", lr.overheadFrac())
	out.Detail["latency_samples"] = float64(lr.h.n)
	if name, q, ok := highestSupported(lr.h.n); ok {
		out.Tail = name
		out.Detail["tail_us"] = lr.h.quantile(q) / 1e3
	}
}

// bestButOne is the estimator behind every per-sub-window metric: the second
// best of the sub-windows' values (second highest if higher is better, else
// second lowest), which drops the single luckiest sub-window.
//
// Interference on the shared two-vCPU reference box only ever slows a
// sub-window down, arrives in bursts of anything from milliseconds to
// seconds, and at times touches most of a run; the server's own
// millisecond stalls do the same to latency percentiles. Calibration over
// ten runs per workload compared the median, the quartiles and the n-th best
// of 25 sub-windows: the worst spread over all workloads and metrics was
// 57 % for the median (server_open's p99), 27 % for the favourable quartile,
// and 10 % for the second best, with the embedded workloads within a point
// of their median's spread either way. The ROADMAP (1a) asks for "best-of-N
// with spread"; this is that, one step in from the extreme. A change that
// slows every transaction moves the best sub-windows as much as any other.
func bestButOne(xs []float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if higherIsBetter {
		return s[max(len(s)-2, 0)]
	}
	return s[min(1, len(s)-1)]
}

func sum(xs []float64) (total float64) {
	for _, x := range xs {
		total += x
	}
	return total
}
