package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over nanoseconds: 64 linear
// sub-buckets per power of two, so a bucket is at most 1.6 % wide. Each
// load-generating goroutine owns one and they are merged after the window;
// record is a few instructions and never allocates.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// Values below 2^histSubBits ns get exact buckets; the top octave covers
	// 2^40 ns ≈ 18 minutes, beyond any run.
	histOctaves = 41 - histSubBits
	histBuckets = (histOctaves + 1) * histSub
)

func histIndex(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1 - histSubBits // ≥ 0
	if exp >= histOctaves {
		return histBuckets - 1
	}
	return (exp+1)*histSub + int(ns>>uint(exp))&(histSub-1)
}

// histBounds returns the half-open value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi uint64) {
	if i < histSub {
		return uint64(i), uint64(i) + 1
	}
	exp := uint(i/histSub - 1)
	lo = (histSub + uint64(i%histSub)) << exp
	return lo, lo + 1<<exp
}

func (h *hist) record(ns int64) {
	v := uint64(0)
	if ns > 0 {
		v = uint64(ns)
	}
	h.counts[histIndex(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly by
// rank inside the bucket that holds it, so two runs whose samples fall in
// the same bucket still report different values.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histBounds(i)
			if hi > h.max+1 {
				hi = h.max + 1
			}
			frac := (rank - seen) / float64(c)
			return float64(lo) + frac*float64(hi-lo)
		}
		seen += float64(c)
	}
	return float64(h.max)
}

// tailLevels are the percentiles considered for the "highest percentile the
// sample supports" rule, lowest first; one sample in oneIn lies beyond each.
var tailLevels = []struct {
	name  string
	oneIn uint64
}{
	{"p50", 2}, {"p90", 10}, {"p99", 100}, {"p99.9", 1_000}, {"p99.99", 10_000}, {"p99.999", 100_000},
}

// highestSupported names the highest percentile that still has at least ten
// samples beyond it (choosing-metrics §1); ok is false below 20 samples,
// when not even the median qualifies.
func highestSupported(n uint64) (name string, q float64, ok bool) {
	for _, l := range tailLevels {
		if n/l.oneIn >= 10 {
			name, q, ok = l.name, 1-1/float64(l.oneIn), true
		}
	}
	return
}

// median returns the median of xs (mean of the middle two for even
// lengths) without modifying xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return
}
