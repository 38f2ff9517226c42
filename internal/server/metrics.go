package server

import (
	"sync/atomic"

	"cicada/internal/telemetry"
)

// metrics holds the server_* instrumentation (docs/OBSERVABILITY.md
// "Server metrics"). Two ownership regimes coexist:
//
//   - Outside a worker lease a session (one goroutine per connection, many
//     of them) updates plain atomics; they are exposed to the registry
//     through CounterFunc/GaugeFunc at scrape time. Worker-sharded counters
//     would be wrong here — shards are single-writer by contract.
//   - Under a lease the session is the worker's only user, so it writes
//     that worker's shard of the transaction counters and latency
//     histogram, same as the engine's own hot-path counters.
//
// All atomic fields are always updated; registry registration happens only
// when the DB was opened with Config.Telemetry, so a telemetry-less server
// keeps working (the sharded fields are then nil and guarded at use).
type metrics struct {
	sessionsTotal   atomic.Uint64 // connections accepted
	sessionsActive  atomic.Int64  // connections currently open
	framesIn        atomic.Uint64
	framesOut       atomic.Uint64
	bytesIn         atomic.Uint64
	bytesOut        atomic.Uint64
	malformed       atomic.Uint64 // frames rejected as malformed/oversized
	overloadRejects atomic.Uint64 // txns rejected because too many sessions waited for a lease

	txnCommitted *telemetry.Counter   // nil without telemetry
	txnAborted   *telemetry.Counter   // retry budget exhausted
	txnError     *telemetry.Counter   // rejected or failed without aborting
	txnLatency   *telemetry.Histogram // lease-acquired-to-response-staged, ns
}

// inc counts one transaction outcome on worker id's shard of c (nil without
// telemetry); the caller holds that worker's lease.
func inc(c *telemetry.Counter, id int) {
	if c != nil {
		c.Shard(id).Inc()
	}
}

// register wires the server_* families onto the engine's registry so one
// scrape covers engine and server. Family names are string literals: the
// metricdrift analyzer cross-checks them against docs/OBSERVABILITY.md.
func (s *Server) register(r *telemetry.Registry) {
	m := s.m
	r.CounterFunc("server_sessions_total",
		"Client connections accepted by the server.",
		func() float64 { return float64(m.sessionsTotal.Load()) })
	r.GaugeFunc("server_sessions_active",
		"Client connections currently open.",
		func() float64 { return float64(m.sessionsActive.Load()) })
	r.CounterFunc("server_frames_in_total",
		"Request frames read off client connections.",
		func() float64 { return float64(m.framesIn.Load()) })
	r.CounterFunc("server_frames_out_total",
		"Response frames written to client connections.",
		func() float64 { return float64(m.framesOut.Load()) })
	r.CounterFunc("server_bytes_in_total",
		"Request bytes read off client connections (including frame headers).",
		func() float64 { return float64(m.bytesIn.Load()) })
	r.CounterFunc("server_bytes_out_total",
		"Response bytes written to client connections.",
		func() float64 { return float64(m.bytesOut.Load()) })
	r.CounterFunc("server_malformed_total",
		"Frames rejected as malformed or over the frame bound.",
		func() float64 { return float64(m.malformed.Load()) })
	r.CounterFunc("server_overload_rejections_total",
		"Transactions rejected with the overload code because QueueDepth sessions were already waiting for a worker lease.",
		func() float64 { return float64(m.overloadRejects.Load()) })
	r.GaugeFunc("server_queue_depth",
		"Sessions waiting for a worker lease.",
		func() float64 { return float64(s.waiters.Load()) })
	r.GaugeFunc("server_draining",
		"1 while the server is draining for shutdown, else 0.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})

	m.txnCommitted = r.Counter("server_txns_total",
		"Transactions executed by the server, by outcome.",
		telemetry.Label{Key: "status", Value: "committed"})
	m.txnAborted = r.Counter("server_txns_total",
		"Transactions executed by the server, by outcome.",
		telemetry.Label{Key: "status", Value: "aborted"})
	m.txnError = r.Counter("server_txns_total",
		"Transactions executed by the server, by outcome.",
		telemetry.Label{Key: "status", Value: "error"})
	m.txnLatency = r.Histogram("server_txn_latency_ns",
		"Transaction latency from worker lease acquired to response staged, in nanoseconds.")

	for _, ten := range s.tenants {
		ten := ten
		r.CounterFunc("server_tenant_txns_total",
			"Transactions executed per tenant (any outcome).",
			func() float64 { return float64(ten.txns.Load()) },
			telemetry.Label{Key: "tenant", Value: ten.name})
		r.CounterFunc("server_tenant_quota_rejections_total",
			"Hello and txn rejections with the quota code, per tenant.",
			func() float64 { return float64(ten.quotaRejects.Load()) },
			telemetry.Label{Key: "tenant", Value: ten.name})
	}
}
