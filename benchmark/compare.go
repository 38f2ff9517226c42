package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// The repeatability tool: `compare a.jsonl b.jsonl` reads two sets of runs
// (files written with -out) and says, for every end-to-end metric on every
// workload, whether the second set agrees with the first within the metric's
// bound. It is used to accept the benchmark itself (two sets from one
// commit) and by later changes for parent-versus-change pairs.

// comparedLayer are the per-layer metrics the tool also compares, with the
// bounds it judges them by: the three the issue wanted end to end. The two
// wal.* metrics exist on embed_durable alone and keep the issue's bounds;
// the p99 does not repeat within any bound the contract allows, so it gets
// the largest and is expected to come out "unresolved" more often than not.
var comparedLayer = map[string]float64{
	"txn_p99_us":              0.25,
	"wal.bytes_per_user_byte": 0.03,
	"wal.recover_s":           0.10,
}

type verdict string

const (
	within     verdict = "within bound"
	regressed  verdict = "REGRESSED"
	improved   verdict = "improved"
	unresolved verdict = "unresolved"
	missing    verdict = "missing"
)

// quartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method the
// driver uses). It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside [0, 4] at the clamped ends: Python extrapolates, so this does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

type sample struct {
	median, q1, q3 float64
	n              int
}

// spread is the interquartile range as a share of the median.
func (s sample) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

func summarize(xs []float64) sample {
	if len(xs) < 2 {
		return sample{n: len(xs)}
	}
	q1, _, q3 := quartiles(xs)
	return sample{median: median(xs), q1: q1, q3: q3, n: len(xs)}
}

// judge compares set b against set a for one metric. A spread wider than the
// bound on either side makes the pair unresolved — never "unchanged".
func judge(a, b sample, better string, bound float64) (verdict, float64) {
	if a.n < 2 || b.n < 2 || a.median == 0 {
		return missing, 0
	}
	worse := (b.median - a.median) / a.median
	if better == "higher" {
		worse = -worse
	}
	switch {
	case a.spread() > bound || b.spread() > bound:
		return unresolved, worse
	case worse > bound:
		return regressed, worse
	case worse < -bound:
		return improved, worse
	}
	return within, worse
}

// readRuns groups a results file's values by workload and metric.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var o outcome
		if err := json.Unmarshal(sc.Bytes(), &o); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if o.Hung != "" {
			continue // a hung run measured nothing
		}
		m := runs[o.Workload]
		if m == nil {
			m = map[string][]float64{}
			runs[o.Workload] = m
		}
		for name, v := range o.EndToEnd {
			m[name] = append(m[name], v)
		}
		for name := range comparedLayer {
			// The p99 is taken from measured runs only; the wal.* metrics
			// exist in traced runs only.
			if v, ok := o.PerLayer[name]; ok && v != 0 && !(o.Traced && name == "txn_p99_us") {
				m[name] = append(m[name], v)
			}
		}
	}
	return runs, sc.Err()
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare a.jsonl b.jsonl")
		return 2
	}
	a, err := readRuns(args[0])
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = readRuns(args[1]); err == nil {
			return printComparison(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, err)
	return 2
}

func printComparison(a, b map[string]map[string][]float64) int {
	defs := append([]metricDef(nil), endToEnd...)
	for _, d := range perLayer { // catalogue order, so the output is stable
		if bound, ok := comparedLayer[d.Name]; ok {
			d.Bound = bound
			defs = append(defs, d)
		}
	}
	counts := map[verdict]int{}
	fmt.Printf("%-20s %-24s %5s  %28s  %28s  %8s  %s\n", "workload", "metric", "bound", "a: median [q1, q3] (n)", "b: median [q1, q3] (n)", "b worse", "verdict")
	for _, w := range workloads {
		for _, d := range defs {
			sa, sb := summarize(a[w.name][d.Name]), summarize(b[w.name][d.Name])
			if sa.n == 0 && sb.n == 0 {
				continue
			}
			v, worse := judge(sa, sb, d.Better, d.Bound)
			counts[v]++
			fmt.Printf("%-20s %-24s %4.0f%%  %28s  %28s  %+7.1f%%  %s\n", w.name, d.Name, d.Bound*100, sa, sb, worse*100, v)
		}
	}
	fmt.Printf("\n%d within bound, %d improved, %d regressed, %d unresolved (spread wider than the bound), %d missing\n",
		counts[within], counts[improved], counts[regressed], counts[unresolved], counts[missing])
	if counts[regressed] > 0 {
		return 1
	}
	return 0
}

func (s sample) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.median, s.q1, s.q3, s.n)
}
