// Command benchmark is the repository's benchmark: six fixed workloads over
// the embedded engine, its WAL and its network server, seven end-to-end
// metrics on each, and a traced run that prices every layer. README.md is
// the catalogue; BENCHMARK.json is the contract the driver reads.
//
//	go run . -seed 1                       every workload, measured run
//	go run . -seed 1 -trace 1              … followed by the traced run
//	go run . -workload embed_write_skew    one workload (what the driver does)
//	go run . -repeat 5 -out a.jsonl        five passes, seeds 1..5, appended to a.jsonl
//	go run . compare a.jsonl b.jsonl       do two sets of runs agree within each bound?
//	go run . selftest                      prove every output check fires on a dropped update
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "selftest":
			if err := selftest(); err != nil {
				fmt.Fprintln(os.Stderr, "selftest:", err)
				os.Exit(1)
			}
			fmt.Println("selftest: every check passes on good output and fires on a dropped update")
			return
		}
	}
	var (
		name     = flag.String("workload", "", "run only this workload and print the contract's result line; empty runs all six")
		seed     = flag.Uint64("seed", defaultSeed, "seed of every generated input")
		seconds  = flag.Int("seconds", defaultRunSeconds, "measured window in seconds (five sub-windows), after a 2 s ramp")
		trace    = flag.Int("trace", 0, "1 = traced run: spans recorded, per-layer metrics and the ladder reported")
		repeat   = flag.Int("repeat", 1, "passes over the workloads, seeds seed..seed+repeat-1")
		out      = flag.String("out", "", "append every run's outcome to this file, one JSON object per line")
		traceOut = flag.String("trace-out", "", "Chrome trace-event JSON of a traced run (default .bench_build/trace-<workload>.json)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := checkCPUs(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	runtime.GOMAXPROCS(loadThreads)

	todo := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			os.Exit(2)
		}
		todo = []workload{w}
	}
	window := time.Duration(*seconds) * time.Second
	ok := true
	var last *outcome
	// All six workloads run measured and then, with -trace 1, traced; the
	// driver asks for one workload and one kind of run at a time.
	kinds := []bool{false, true}[:1+*trace]
	if *name != "" {
		kinds = []bool{*trace == 1}
	}
	for pass := 0; pass < *repeat; pass++ {
		for _, traced := range kinds {
			for _, w := range todo {
				o := runOpts{seed: *seed + uint64(pass), window: window}
				if traced {
					o.tracer = newTracer()
				}
				res := runOne(w, o, *traceOut)
				printOutcome(res)
				if *out != "" {
					if err := appendJSON(*out, res); err != nil {
						fmt.Fprintln(os.Stderr, err)
						os.Exit(1)
					}
				}
				ok = ok && res.Correct
				last = res
			}
		}
	}
	if *name != "" {
		fmt.Println(contractLine(last))
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload once; a traced run is followed by the ladder and
// leaves its spans in a Chrome trace file.
func runOne(w workload, o runOpts, traceOut string) *outcome {
	res := runWorkload(w, o)
	if !o.traced() || res.Hung != "" {
		return res
	}
	var err error
	if !guarded(runLimit, func() { err = runLadder(o, res) }) {
		err = fmt.Errorf("ladder still going after %v", runLimit)
		res.Hung = err.Error()
	}
	if err == nil {
		if traceOut == "" {
			traceOut = filepath.Join(".bench_build", "trace-"+w.name+".json")
		}
		if err = os.MkdirAll(filepath.Dir(traceOut), 0o755); err == nil {
			err = o.tracer.writeChrome(traceOut)
		}
	}
	if err != nil {
		res.Correct = false
		res.Attempted++
		res.Failed++
		if res.FirstErr == "" {
			res.FirstErr = err.Error()
		}
	}
	_, stored, dropped := o.tracer.totals()
	res.Detail["spans_stored"], res.Detail["spans_dropped"] = float64(stored), float64(dropped)
	return res
}

// contractLine is the last line of a single-workload run: the JSON object
// the driver parses, carrying every metric of the run's kind (one that does
// not apply, or that a hung run never measured, reads 0).
func contractLine(res *outcome) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, got := endToEnd, res.EndToEnd
	if res.Traced {
		defs, got = perLayer, res.PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{got[d.Name], d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

func appendJSON(path string, res *outcome) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printOutcome(res *outcome) {
	kind := "measured"
	if res.Traced {
		kind = "traced"
	}
	e := res.Env
	fmt.Printf("== %s (%s run, seed %d) — nproc %d, GOMAXPROCS %d, %s, %s, commit %s\n",
		res.Workload, kind, res.Seed, e.NumCPU, e.GOMAXPROCS, e.CPUModel, e.GoVersion, e.Commit)
	// A measured run prints its end-to-end metrics and then the per-layer
	// ones it can vouch for (the tail latencies); a traced run prints only
	// per-layer metrics. One that does not apply to the workload reads 0 and
	// is left out.
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		v, ok := res.EndToEnd[d.Name]
		if !ok {
			if v, ok = res.PerLayer[d.Name]; !ok || v == 0 {
				continue
			}
		}
		note := ""
		if med, ok := res.Detail[d.Name+"_median"]; ok {
			note = fmt.Sprintf("  (sub-windows: best %.4g, median %.4g, worst %.4g)", res.Detail[d.Name+"_best"], med, res.Detail[d.Name+"_worst"])
		}
		fmt.Printf("  %-32s %14.4f %-6s%s\n", d.Name, v, d.Unit, note)
	}
	if res.Tail != "" {
		fmt.Printf("  latency over the whole window: %s %.1f us is the highest percentile with ≥ 10 samples beyond it; %.0f samples\n",
			res.Tail, res.Detail["tail_us"], res.Detail["latency_samples"])
	}
	if res.Traced {
		fmt.Printf("  spans stored %.0f, dropped from the trace file %.0f\n", res.Detail["spans_stored"], res.Detail["spans_dropped"])
	}
	fmt.Printf("  %-32s %14d\n  %-32s %14d\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
	switch {
	case res.Hung != "":
		fmt.Printf("  HUNG: %s\n", res.Hung)
	case res.VerifyErr != "":
		fmt.Printf("  VERIFICATION FAILED: %s\n", res.VerifyErr)
	default:
		fmt.Println("  output verified")
	}
	if res.FirstErr != "" {
		fmt.Printf("  first error: %s\n", res.FirstErr)
	}
}
