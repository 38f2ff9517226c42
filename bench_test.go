// Benchmarks regenerating the paper's evaluation (§4): one benchmark per
// figure and table, driving the same experiment code as cmd/cicada-bench at
// a reduced per-point duration. Throughput is reported as the custom metric
// "tx/s" (and "recs/s" for scans); the Go benchmark time itself is the
// wall-clock cost of running the experiment point.
//
// Run all:  go test -bench=. -benchmem
// One:      go test -bench=BenchmarkFig6 -benchtime=1x
package cicada_test

import (
	"strconv"
	"testing"
	"time"

	"cicada/internal/bench"
	"cicada/internal/workload/tpcc"
	"cicada/internal/workload/ycsb"
)

// benchScale keeps every point short enough for the full matrix to run in
// minutes; cmd/cicada-bench uses longer windows and larger data.
func benchScale() bench.Scale {
	s := bench.DefaultScale()
	s.Threads = []int{2}
	s.MaxThreads = 2
	s.Engines = bench.EngineNames
	t := tpcc.DefaultConfig(1)
	t.Items = 2000
	t.CustomersPerDistrict = 300
	t.InitialOrdersPerDistrict = 100
	s.TPCC = t
	y := ycsb.DefaultConfig()
	y.Records = 50_000
	s.YCSB = y
	s.Skews = []float64{0, 0.99}
	s.RecordSizes = []int{8, 216, 1000}
	s.GCIntervals = []time.Duration{10 * time.Microsecond, 10 * time.Millisecond}
	s.Backoffs = []time.Duration{0, 100 * time.Microsecond}
	s.Dur = bench.Durations{Ramp: 50 * time.Millisecond, Measure: 200 * time.Millisecond}
	return s
}

// report runs the experiment once and reports each result point as a
// sub-benchmark metric.
func report(b *testing.B, rs []bench.Result) {
	b.Helper()
	for _, r := range rs {
		r := r
		name := r.Engine
		if r.Param != 0 {
			name += "/param=" + trimFloat(r.Param)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// The measurement already ran; re-running per iteration
				// would multiply load times. Report the captured metrics.
			}
			b.ReportMetric(r.TPS, "tx/s")
			b.ReportMetric(100*r.AbortRate, "abort%")
			for k, v := range r.Extra {
				b.ReportMetric(v, k)
			}
		})
	}
}

func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', 3, 64)
}

// BenchmarkPublicRunRMW4 is the public-API rung's microbenchmark: a 4-request
// 50 % read-modify-write transaction through HashIndex.Get and Worker.Run on
// one worker (docs/PERFORMANCE.md "Transaction envelope").
func BenchmarkPublicRunRMW4(b *testing.B) {
	r := newRMW4(b, 1)
	w := r.db.Worker(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(r.readWrite); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3_TPCC_Contended: TPC-C full mix with phantom avoidance,
// 1 warehouse (Figure 3a).
func BenchmarkFig3_TPCC_Contended(b *testing.B) {
	report(b, bench.Fig3('a', benchScale()))
}

// BenchmarkFig3_TPCC_Uncontended: warehouses = threads (Figure 3c).
func BenchmarkFig3_TPCC_Uncontended(b *testing.B) {
	report(b, bench.Fig3('c', benchScale()))
}

// BenchmarkFig4_TPCC_DeferredIndex: deferred index updates, no phantom
// avoidance, 1 warehouse (Figure 4a).
func BenchmarkFig4_TPCC_DeferredIndex(b *testing.B) {
	report(b, bench.Fig4('a', benchScale()))
}

// BenchmarkFig5_TPCCNP: NewOrder + Payment only, 4 warehouses (Figure 5b).
func BenchmarkFig5_TPCCNP(b *testing.B) {
	report(b, bench.Fig5('b', benchScale()))
}

// BenchmarkFig6_YCSB_Contended: YCSB 16 req/tx, 50 % RMW, zipf 0.99
// (Figure 6a).
func BenchmarkFig6_YCSB_Contended(b *testing.B) {
	report(b, bench.Fig6('a', benchScale()))
}

// BenchmarkFig6_YCSB_ReadIntensiveSkew: 5 % RMW, skew sweep (Figure 6c).
func BenchmarkFig6_YCSB_ReadIntensiveSkew(b *testing.B) {
	report(b, bench.Fig6('c', benchScale()))
}

// BenchmarkFig7_MultiClock: tiny transactions; Cicada multi-clock vs
// centralized-counter variants (Figure 7 / §4.6 factor analysis).
func BenchmarkFig7_MultiClock(b *testing.B) {
	report(b, bench.Fig7(benchScale()))
}

// BenchmarkFig8_Inlining: record-size sweep with and without best-effort
// inlining (Figure 8).
func BenchmarkFig8_Inlining(b *testing.B) {
	report(b, bench.Fig8(benchScale()))
}

// BenchmarkFig9_GC: garbage collection interval sweep plus space overhead
// (Figure 9).
func BenchmarkFig9_GC(b *testing.B) {
	report(b, bench.Fig9(benchScale()))
}

// BenchmarkFig10_Backoff: contention regulation (auto) vs fixed maximum
// backoff (Figure 10, YCSB panel).
func BenchmarkFig10_Backoff(b *testing.B) {
	report(b, bench.Fig10("ycsb", benchScale()))
}

// BenchmarkFig11_TinyTx: YCSB 1 req/tx skew sweep (Figure 11a).
func BenchmarkFig11_TinyTx(b *testing.B) {
	report(b, bench.Fig11('a', benchScale()))
}

// BenchmarkTable2_Ablation: disabling each validation optimization on
// contended YCSB (Table 2).
func BenchmarkTable2_Ablation(b *testing.B) {
	report(b, bench.Table2(benchScale()))
}

// BenchmarkScan_Inlining: scan throughput with and without inlining (§4.6).
func BenchmarkScan_Inlining(b *testing.B) {
	report(b, bench.ScanBench(benchScale()))
}

// BenchmarkStaleness: read-only snapshot staleness during TPC-C (§4.6).
func BenchmarkStaleness(b *testing.B) {
	report(b, bench.Staleness(benchScale()))
}

// BenchmarkRTSUpdate: conditional read-timestamp updates vs unconditional
// atomic fetch-add on a single record (§3.4).
func BenchmarkRTSUpdate(b *testing.B) {
	cond, faa := bench.RTSUpdateBench(2, 100*time.Millisecond)
	b.ReportMetric(cond, "cond-ops/s")
	b.ReportMetric(faa, "faa-ops/s")
	b.ReportMetric(cond/faa, "ratio")
}
