package main

import (
	"math"
	"testing"
	"time"
)

// Tests of the benchmark's own arithmetic: percentiles, the highest
// supported percentile, medians, key determinism, quartiles and verdicts.

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.record(v * 10) // 10 ns .. 1 ms, uniform
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := q * 1_000_000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("quantile(%v) = %.0f, want %.0f within 2%%", q, got, want)
		}
	}
	if h.n != 100_000 || h.max != 1_000_000 {
		t.Errorf("n = %d, max = %d", h.n, h.max)
	}
}

func TestHistBucketsCoverEveryValue(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<20 + 12345, 1 << 39} {
		lo, hi := histBounds(histIndex(v))
		if v < lo || v >= hi {
			t.Errorf("value %d landed in bucket [%d, %d)", v, lo, hi)
		}
		if hi-lo > 1 && float64(hi-lo)/float64(lo) > 1.0/histSub+1e-9 {
			t.Errorf("bucket [%d, %d) is wider than 1/%d of its value", lo, hi, histSub)
		}
	}
}

func TestHistInterpolatesInsideBucket(t *testing.T) {
	// Two sample sets in one bucket must not read the same: the driver
	// rejects a time that is identical on every run.
	var a, b hist
	for i := 0; i < 100; i++ {
		a.record(100_000)
		b.record(100_000)
	}
	b.record(100_001)
	if a.quantile(0.5) == b.quantile(0.5) {
		t.Errorf("p50 identical (%v) for different samples in one bucket", a.quantile(0.5))
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, all hist
	for v := int64(1); v <= 1000; v++ {
		if v%2 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
		all.record(v)
	}
	a.merge(&b)
	if a.n != all.n || a.max != all.max || a.quantile(0.99) != all.quantile(0.99) {
		t.Errorf("merged histogram differs from the histogram of all samples")
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want string
		ok   bool
	}{
		{19, "", false},     // 9.5 samples beyond the median
		{20, "p50", true},   // exactly 10 beyond p50
		{99, "p50", true},   // 9.9 beyond p90
		{100, "p90", true},  // exactly 10 beyond p90
		{999, "p90", true},  // 9.99 beyond p99
		{1000, "p99", true}, // exactly 10 beyond p99
		{50_000, "p99.9", true},
		{1_000_000, "p99.999", true},
		{5_000_000, "p99.999", true}, // the list ends there
	} {
		got, _, ok := highestSupported(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestSupported(%d) = %q, %v; want %q, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestMedianOfSubWindows(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{170e3, 182e3, 175e3, 90e3, 176e3}, 175e3}, // one stalled sub-window does not move it
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Errorf("median reordered its argument: %v", in)
	}
}

func TestBestButOne(t *testing.T) {
	rates := []float64{170e3, 182e3, 175e3, 90e3, 176e3, 240e3} // one stalled and one freak sub-window
	if got := bestButOne(rates, true); got != 182e3 {
		t.Errorf("second highest of %v = %v, want 182000", rates, got)
	}
	lats := []float64{9.4, 9.1, 30, 9.2, 2.0}
	if got := bestButOne(lats, false); got != 9.1 {
		t.Errorf("second lowest of %v = %v, want 9.1", lats, got)
	}
	if bestButOne(nil, true) != 0 || bestButOne([]float64{7}, true) != 7 || bestButOne([]float64{7}, false) != 7 {
		t.Error("bestButOne of an empty or single-value slice")
	}
	if lats[0] != 9.4 {
		t.Errorf("bestButOne reordered its argument: %v", lats)
	}
}

func TestOverheadFracUsesAlternatingSlices(t *testing.T) {
	var lr loadResult
	for i, commits := range []uint64{90, 100, 92, 100, 88} {
		lr.slices = append(lr.slices, sliceStat{elapsed: time.Second, commits: commits, traced: i%2 == 0})
	}
	if got := lr.overheadFrac(); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("overheadFrac = %v, want 0.10 (1 − median traced 90 ÷ median untraced 100)", got)
	}
	lr.slices = lr.slices[:1]
	if got := lr.overheadFrac(); got != 0 {
		t.Errorf("overheadFrac with no untraced slice = %v, want 0", got)
	}
}

// Golden keys: the same seed must give the same load on every commit. The
// Zipfian values depend on math.Pow's last bit, so they are amd64's.
func TestKeysGolden(t *testing.T) {
	for _, c := range []struct {
		theta float64
		first []uint64
		hash  uint64 // FNV-1a over the first 1000 keys
	}{
		{0, []uint64{566181, 936574, 741289, 45250, 997738, 305248, 207609, 234231}, 0x4d842af789dcb039},
		{0.99, []uint64{2255, 419708, 27607, 0, 969638, 47, 10, 16}, 0x64fc85e57075c33d},
	} {
		g := newKeyGen(streamSeed(1, 0), 1_000_000, c.theta)
		again := g.fork(streamSeed(1, 0))
		h := uint64(14695981039346656037)
		for i := 0; i < 1000; i++ {
			k := g.next()
			if k2 := again.next(); k2 != k {
				t.Fatalf("theta %v: key %d differs between two generators with one seed: %d, %d", c.theta, i, k, k2)
			}
			if i < len(c.first) && k != c.first[i] {
				t.Errorf("theta %v: key %d = %d, want %d", c.theta, i, k, c.first[i])
			}
			if k >= 1_000_000 {
				t.Fatalf("theta %v: key %d out of range", c.theta, k)
			}
			h = (h ^ k) * 1099511628211
		}
		if h != c.hash {
			t.Errorf("theta %v: hash of the first 1000 keys = %#x, want %#x", c.theta, h, c.hash)
		}
	}
	if a, b := newKeyGen(streamSeed(1, 0), 1000, 0).next(), newKeyGen(streamSeed(2, 0), 1000, 0).next(); a == b {
		t.Errorf("seeds 1 and 2 drew the same first key %d", a)
	}
}

func TestZipfIsSkewed(t *testing.T) {
	g := newKeyGen(42, 1_000_000, 0.99)
	hot := 0
	for i := 0; i < 100_000; i++ {
		if g.next() < 100 {
			hot++
		}
	}
	// At theta 0.99 the hundred hottest of a million keys draw about a third of the requests.
	if hot < 25_000 || hot > 45_000 {
		t.Errorf("%d of 100000 draws hit the 100 hottest keys, want about a third", hot)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input, from CPython 3.11.
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 2, 8, 4, 6}, 3, 6, 9},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // extrapolates, as Python does
		{[]float64{5, 1, 3}, 1, 3, 5},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	tight := func(m float64) sample { return sample{median: m, q1: m * 0.995, q3: m * 1.005, n: 10} }
	wide := func(m float64) sample { return sample{median: m, q1: m * 0.9, q3: m * 1.1, n: 10} }
	for _, c := range []struct {
		name   string
		a, b   sample
		better string
		want   verdict
	}{
		{"same", tight(100), tight(101), "lower", within},
		{"latency up 10%", tight(100), tight(110), "lower", regressed},
		{"latency down 10%", tight(100), tight(90), "lower", improved},
		{"throughput down 10%", tight(100), tight(90), "higher", regressed},
		{"throughput up 10%", tight(100), tight(110), "higher", improved},
		{"spread wider than the bound is never 'unchanged'", wide(100), tight(100), "lower", unresolved},
		{"spread wider than the bound hides a regression too", tight(100), wide(120), "lower", unresolved},
		{"too few runs", sample{n: 1}, tight(100), "lower", missing},
	} {
		if got, _ := judge(c.a, c.b, c.better, 0.07); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	tr.enabled.Store(true)
	b := tr.buf()
	b.seq = traceSampleEvery - 1
	s := b.sample()
	if s == nil {
		t.Fatal("the 64th transaction was not sampled")
	}
	s.begin(spTxn)
	s.begin(spExec)
	s.begin(spRead)
	s.end()
	s.end()
	s.end()
	if b.sample() != nil {
		t.Error("the 65th transaction was sampled")
	}
	agg, stored, dropped := tr.totals()
	if stored != 3 || dropped != 0 {
		t.Fatalf("stored %d spans, dropped %d", stored, dropped)
	}
	if agg[spTxn].self != agg[spTxn].total-agg[spExec].total || agg[spExec].self != agg[spExec].total-agg[spRead].total {
		t.Errorf("self time is not the span minus its children: %+v", agg[:spRead+1])
	}
	if b.spans[0].txn != b.spans[2].txn || b.spans[2].depth != 2 {
		t.Errorf("spans of one transaction do not share its id and nest: %+v", b.spans)
	}
	var off *spanBuf
	off.begin(spTxn) // untraced transactions record through a nil buffer
	off.end()
}
