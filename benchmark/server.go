package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"cicada"
	"cicada/internal/client"
	"cicada/internal/server"
	"cicada/internal/server/wire"
)

// server_closed and server_open: cicada-server's runtime (server.New +
// Serve) on a loopback TCP listener inside the benchmark process, one engine
// worker, one tenant with one table, and two internal/client connections.
// The engine is nearly idle; server, server/wire, buf, client and the kernel
// do the work.
//
// Connection i writes only keys ≡ i (mod 2) and remembers the last version
// it was acked for each, so every key has exactly one writer and the final
// read-back has an exact expected value.

const (
	srvTenant     = "bench"
	srvTable      = "kv"
	srvKeys       = 100_000
	srvValueSize  = 64
	srvStmts      = 4 // statements per transaction, half Put half Get
	srvConns      = 2
	srvLoadBatch  = 64
	srvWarmupTxns = 2_000 // per connection, part of set-up
	srvPings      = 2_000 // traced run only: the socket + framing floor
	sloLimit      = time.Millisecond
)

type serverInst struct {
	db      *cicada.DB
	srv     *server.Server
	served  chan error
	conns   []*client.Client
	last    []uint64 // last acked version per key; element k is touched only by connection k%2
	rate    int      // open loop: transactions per second per connection; 0 = closed loop
	seed    uint64
	pingRTT float64 // µs, traced run only
	stats0  wire.Stats
	core0   cicada.Stats
	gens    []*srvGen
}

func setupServer(ratePerConn int) func(o runOpts) (instance, error) {
	return func(o runOpts) (instance, error) {
		cfg := cicada.DefaultConfig(1)
		cfg.Telemetry = o.traced() // server_txn_latency_ns; off in the measured run
		s := &serverInst{db: cicada.Open(cfg), rate: ratePerConn, seed: o.seed, last: make([]uint64, srvKeys)}
		var err error
		s.srv, err = server.New(server.Config{DB: s.db, Tenants: []server.TenantConfig{
			{Name: srvTenant, Tables: []string{srvTable}, TableCapacity: srvKeys},
		}})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.srv.Close()
			return nil, err
		}
		s.served = make(chan error, 1)
		go func() { s.served <- s.srv.Serve(ln) }()
		for i := 0; i < srvConns; i++ {
			c, err := client.Dial(ln.Addr().String(), srvTenant)
			if err != nil {
				s.close()
				return nil, fmt.Errorf("dial: %w", err)
			}
			s.conns = append(s.conns, c)
			s.gens = append(s.gens, newSrvGen(s, i))
		}
		if err := s.eachConn(func(g *srvGen) error { return g.preload() }); err != nil {
			s.close()
			return nil, err
		}
		if err := s.eachConn(func(g *srvGen) error { return g.warmup() }); err != nil {
			s.close()
			return nil, err
		}
		if o.traced() {
			if err := s.measurePing(o); err != nil {
				s.close()
				return nil, err
			}
		}
		return s, nil
	}
}

func (s *serverInst) eachConn(fn func(g *srvGen) error) error {
	errs := make([]error, len(s.gens))
	var wg sync.WaitGroup
	for i, g := range s.gens {
		wg.Add(1)
		go func(i int, g *srvGen) {
			defer wg.Done()
			errs[i] = fn(g)
		}(i, g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *serverInst) measurePing(o runOpts) error {
	rtts := make([]float64, 0, srvPings)
	for i := 0; i < srvPings; i++ {
		t0 := time.Now()
		sp := o.tracer.span(spClientPing)
		err := s.conns[0].Ping()
		sp.end()
		if err != nil {
			return fmt.Errorf("ping: %w", err)
		}
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	}
	s.pingRTT = median(rtts)
	return nil
}

func (s *serverInst) liveBytes() uint64 { return srvKeys * srvValueSize }

func (s *serverInst) close() {
	for _, c := range s.conns {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.srv.Drain(ctx) // error dropped: a timed-out drain force-closes, which is all teardown needs
	if s.served != nil {
		<-s.served
	}
}

// srvGen is one connection's request generator.
type srvGen struct {
	s    *serverInst
	id   int
	c    *client.Client
	rng  *rng
	val  [srvValueSize]byte
	keys [srvStmts]uint64
	vers [srvStmts]uint64 // version this statement writes (Put) or must read (Get of an own key); 0 = unchecked
	puts [srvStmts]bool

	abortExhausted, overload uint64
	open                     openStats
}

func newSrvGen(s *serverInst, id int) *srvGen {
	return &srvGen{s: s, id: id, c: s.conns[id], rng: newRNG(streamSeed(s.seed, 100+id))}
}

func (g *srvGen) value(key, ver uint64) []byte {
	binary.LittleEndian.PutUint64(g.val[0:], key)
	binary.LittleEndian.PutUint64(g.val[8:], ver)
	for i := 16; i < len(g.val); i++ {
		g.val[i] = byte(key)
	}
	return g.val[:]
}

// preload writes this connection's half of the key space at version 1.
func (g *srvGen) preload() error {
	for lo := uint64(g.id); lo < srvKeys; lo += 2 * srvLoadBatch {
		tx := g.c.Txn()
		for k := lo; k < min(lo+2*srvLoadBatch, srvKeys); k += 2 {
			tx.Put(srvTable, k, g.value(k, 1))
			g.s.last[k] = 1
		}
		if _, err := tx.Exec(); err != nil {
			return fmt.Errorf("preload at key %d: %w", lo, err)
		}
	}
	return nil
}

func (g *srvGen) warmup() error {
	for i := 0; i < srvWarmupTxns; i++ {
		if err := g.txn(nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// draw picks the next transaction's statements.
func (g *srvGen) draw() {
	for i := 0; i < srvStmts; i++ {
		g.puts[i] = g.rng.next()&1 == 0
		if g.puts[i] {
			g.keys[i] = 2*g.rng.intn(srvKeys/2) + uint64(g.id)
		} else {
			g.keys[i] = g.rng.intn(srvKeys)
		}
		// What an own key holds at this point of the transaction: the last
		// acked version, or what an earlier statement of this transaction
		// wrote.
		cur := uint64(0)
		if g.keys[i]%2 == uint64(g.id) {
			cur = g.s.last[g.keys[i]]
			for j := 0; j < i; j++ {
				if g.puts[j] && g.keys[j] == g.keys[i] {
					cur = g.vers[j]
				}
			}
		}
		if g.puts[i] {
			g.vers[i] = cur + 1
		} else {
			g.vers[i] = cur
		}
	}
}

// txn draws, sends and checks one transaction. A server error frame, a
// transport error and a wrong result are all failed operations.
func (g *srvGen) txn(tr *spanBuf) error {
	g.draw()
	tr.begin(spClientBuild)
	tx := g.c.Txn()
	for i := 0; i < srvStmts; i++ {
		if g.puts[i] {
			tx.Put(srvTable, g.keys[i], g.value(g.keys[i], g.vers[i]))
		} else {
			tx.Get(srvTable, g.keys[i])
		}
	}
	tr.end()
	tr.begin(spClientExec)
	res, err := tx.Exec()
	tr.end()
	if err != nil {
		var se *client.ServerError
		if errors.As(err, &se) {
			switch {
			case se.Code >= wire.ErrCodeAbortRTSEarly:
				g.abortExhausted++
			case se.Code == wire.ErrCodeOverload:
				g.overload++
			}
		}
		return err
	}
	if len(res) != srvStmts {
		return fmt.Errorf("%d results for %d statements", len(res), srvStmts)
	}
	for i, r := range res {
		if err := checkResult(r, g.keys[i], g.vers[i], g.puts[i]); err != nil {
			return err
		}
		if g.puts[i] {
			g.s.last[g.keys[i]] = g.vers[i]
		}
	}
	return nil
}

// checkResult checks one statement's result: a Put must be acked, a Get must
// return the row for its key, at exactly version want when want != 0.
func checkResult(r wire.Result, key, want uint64, put bool) error {
	if r.Status != wire.StatusOK {
		return fmt.Errorf("key %d: status %d", key, r.Status)
	}
	if put {
		return nil
	}
	if len(r.Value) != srvValueSize || binary.LittleEndian.Uint64(r.Value) != key {
		return fmt.Errorf("get key %d: returned %d bytes of another row", key, len(r.Value))
	}
	if got := binary.LittleEndian.Uint64(r.Value[8:]); want != 0 && got != want {
		return fmt.Errorf("get key %d: version %d, last acked %d (lost or phantom update)", key, got, want)
	}
	return nil
}

func (s *serverInst) load(o runOpts) loadResult {
	var err error
	if s.stats0, err = s.conns[0].Stats(); err != nil {
		return loadResult{attempted: 1, failed: 1, firstErr: "stats: " + err.Error()}
	}
	s.core0 = s.db.Stats()
	plan := loadPlan{gens: srvConns, ramp: rampTime, window: o.window, tracer: o.tracer}
	var pacers [srvConns]*pacer
	if s.rate > 0 {
		// The connections' schedules are staggered evenly over one interval.
		interval := time.Second / time.Duration(s.rate)
		for i := range pacers {
			if pacers[i], err = newPacer(interval, time.Duration(i)*interval/srvConns); err != nil {
				return loadResult{attempted: 1, failed: 1, firstErr: err.Error()}
			}
			defer pacers[i].close()
		}
	}
	lr := runLoad(plan, func(r *runner, lg *loadGen) {
		g := s.gens[lg.id]
		if s.rate == 0 {
			r.closedLoop(lg, g.txn)
		} else {
			openLoop(r, lg, &g.open, pacers[lg.id], time.Second/time.Duration(s.rate), g.txn)
		}
	})
	if scheduled := uint64(float64(srvConns*s.rate) * (plan.ramp + plan.window).Seconds()); lr.hung != "" && scheduled > lr.attempted {
		// An abandoned open loop owes everything it had scheduled.
		lr.failed += scheduled - lr.attempted
		lr.attempted = scheduled
	}
	return lr
}

func (s *serverInst) finish(o runOpts, lr *loadResult, out *outcome) error {
	stats1, err := s.conns[0].Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if err := s.readBack(); err != nil {
		return err
	}
	var late hist
	var miss, windowed, aborted, overload uint64
	for _, g := range s.gens {
		late.merge(&g.open.late)
		miss += g.open.sloMiss
		windowed += g.open.windowed
		aborted += g.abortExhausted
		overload += g.overload
	}
	if !o.traced() {
		return nil
	}
	agg, _, _ := o.tracer.totals()
	execRTT := agg[spClientExec].meanNs() / 1e3
	out.set("server.ping_rtt_us", s.pingRTT)
	out.set("server.exec_rtt_us", execRTT)
	out.set("client.build_ns_per_txn", agg[spClientBuild].meanNs())
	if acked := lr.attempted - lr.failed; acked > 0 {
		out.set("server.commit_ratio", float64(stats1.Commits-s.stats0.Commits)/float64(acked))
	}
	out.set("server.abort_exhausted_frac", ratio(aborted, lr.attempted))
	out.set("server.overload_reject_frac", ratio(overload, lr.attempted))
	out.set("server.txn_latency_p50_us", s.db.MetricValues()["server_txn_latency_ns_p50"]/1e3)
	if s.rate > 0 {
		out.set("gen.late_p99_us", late.quantile(0.99)/1e3)
		out.set("gen.achieved_rate_frac", float64(windowed)/(float64(srvConns*s.rate)*lr.elapsed.Seconds()))
		out.set("slo_miss_frac", ratio(miss, windowed))
	}
	coreMetrics(s.db, s.core0, o, out)
	return nil
}

// readBack is the server oracle: every key must hold the last version its
// writer was acked for.
func (s *serverInst) readBack() error {
	c := s.conns[0]
	for lo := uint64(0); lo < srvKeys; lo += srvLoadBatch {
		hi := min(lo+srvLoadBatch, srvKeys)
		tx := c.Txn()
		for k := lo; k < hi; k++ {
			tx.Get(srvTable, k)
		}
		res, err := tx.Exec()
		if err != nil {
			return fmt.Errorf("verify: read back from key %d: %w", lo, err)
		}
		if uint64(len(res)) != hi-lo {
			return fmt.Errorf("verify: %d results for %d keys", len(res), hi-lo)
		}
		for i, r := range res {
			if err := checkResult(r, lo+uint64(i), s.last[lo+uint64(i)], false); err != nil {
				return fmt.Errorf("verify: %w", err)
			}
		}
	}
	return nil
}

func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func perMillion(n, d uint64) float64 { return ratio(n, d) * 1e6 }
