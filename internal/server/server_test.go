package server

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"cicada"
	"cicada/internal/client"
	"cicada/internal/server/wire"
)

// testServer spins up a server on a loopback listener with two tenants
// ("acme" with accounts+audit, "globex" with accounts) and returns its
// address. Callers customize quotas via mut before the server starts.
func testServer(t *testing.T, mut func(*Config)) (*Server, string) {
	t.Helper()
	cfg := Config{
		DB: openDB(2),
		Tenants: []TenantConfig{
			{Name: "acme", Tables: []string{"accounts", "audit"}},
			{Name: "globex", Tables: []string{"accounts"}},
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		if n := srv.pool.Live(); n != 0 {
			t.Errorf("%d pooled chunks still held after shutdown", n)
		}
	})
	return srv, ln.Addr().String()
}

func openDB(workers int) *cicada.DB {
	return cicada.Open(cicada.Config{Workers: workers, Inlining: true, FixedMaxBackoff: -1, Telemetry: true})
}

// dial opens a client that is closed when the test ends.
func dial(t *testing.T, addr, tenant string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, tenant)
	if err != nil {
		t.Fatalf("Dial %s: %v", tenant, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// holdGate makes every transaction report on arrived and then block, under
// its worker lease, until release is called (at the latest when the test
// ends, so a failed test cannot wedge the server's shutdown).
func holdGate(t *testing.T, srv *Server) (arrived <-chan struct{}, release func()) {
	gate, ch := make(chan struct{}), make(chan struct{}, 16)
	srv.testGate = func() { ch <- struct{}{}; <-gate }
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return ch, release
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEndToEnd(t *testing.T) {
	_, addr := testServer(t, nil)
	c, err := client.Dial(addr, "acme")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	if got := c.Tables(); len(got) != 2 || got[0] != "accounts" || got[1] != "audit" {
		t.Fatalf("tables = %v", got)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}

	// Multi-statement read-write txn: two puts and a read-back.
	res, err := c.Txn().
		Put("accounts", 1, []byte("alice")).
		Put("audit", 1, []byte("created")).
		Get("accounts", 1).
		Exec()
	if err != nil {
		t.Fatalf("txn: %v", err)
	}
	if len(res) != 3 || res[0].Status != wire.StatusOK || string(res[2].Value) != "alice" {
		t.Fatalf("results = %+v", res)
	}

	// Update in place, then read the new value in a read-only txn.
	if _, err := c.Txn().Put("accounts", 1, []byte("alice2")).Exec(); err != nil {
		t.Fatalf("update: %v", err)
	}
	// Read-only txns run on a recent consistent snapshot that can lag a
	// just-committed write by a maintenance interval (§3.1/§4.6), so poll
	// until the snapshot horizon catches up.
	waitFor(t, "read-only snapshot to advance", func() bool {
		res, err = c.ReadOnlyTxn().Get("accounts", 1).Get("accounts", 99).Exec()
		if err != nil {
			t.Fatalf("ro txn: %v", err)
		}
		return res[0].Status == wire.StatusOK && string(res[0].Value) == "alice2"
	})
	if res[1].Status != wire.StatusNotFound {
		t.Fatalf("ro results = %+v", res)
	}

	// Writes inside a read-only txn are rejected with the read_only code.
	_, err = c.ReadOnlyTxn().Put("accounts", 2, []byte("x")).Exec()
	if !client.IsCode(err, wire.ErrCodeReadOnly) {
		t.Fatalf("ro put err = %v", err)
	}

	// Delete, then confirm.
	res, err = c.Txn().Delete("accounts", 1).Get("accounts", 1).Delete("accounts", 1).Exec()
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	if res[0].Status != wire.StatusOK || res[1].Status != wire.StatusNotFound || res[2].Status != wire.StatusNotFound {
		t.Fatalf("delete results = %+v", res)
	}

	// Unknown table fails the whole txn with no_table.
	_, err = c.Txn().Put("nope", 1, nil).Exec()
	if !client.IsCode(err, wire.ErrCodeNoTable) {
		t.Fatalf("no_table err = %v", err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Commits == 0 || st.TenantSessions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTenantIsolation(t *testing.T) {
	_, addr := testServer(t, nil)
	acme, err := client.Dial(addr, "acme")
	if err != nil {
		t.Fatalf("Dial acme: %v", err)
	}
	defer acme.Close()
	globex, err := client.Dial(addr, "globex")
	if err != nil {
		t.Fatalf("Dial globex: %v", err)
	}
	defer globex.Close()

	if _, err := acme.Txn().Put("accounts", 7, []byte("acme-secret")).Exec(); err != nil {
		t.Fatalf("acme put: %v", err)
	}
	// Same table name, same key, different tenant: must not see the row.
	res, err := globex.Txn().Get("accounts", 7).Exec()
	if err != nil {
		t.Fatalf("globex get: %v", err)
	}
	if res[0].Status != wire.StatusNotFound {
		t.Fatalf("cross-tenant read leaked: %+v", res[0])
	}
	// globex's own writes land in its own namespace.
	if _, err := globex.Txn().Put("accounts", 7, []byte("globex-data")).Exec(); err != nil {
		t.Fatalf("globex put: %v", err)
	}
	res, err = acme.Txn().Get("accounts", 7).Exec()
	if err != nil {
		t.Fatalf("acme get: %v", err)
	}
	if string(res[0].Value) != "acme-secret" {
		t.Fatalf("acme sees %q", res[0].Value)
	}
	// globex has no "audit" table.
	_, err = globex.Txn().Get("audit", 1).Exec()
	if !client.IsCode(err, wire.ErrCodeNoTable) {
		t.Fatalf("globex audit err = %v", err)
	}
}

func TestUnknownTenantAndBadVersion(t *testing.T) {
	_, addr := testServer(t, nil)
	if _, err := client.Dial(addr, "initech"); !client.IsCode(err, wire.ErrCodeUnknownTenant) {
		t.Fatalf("unknown tenant err = %v", err)
	}

	// Hand-rolled hello with a wrong major version.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	payload := []byte{99, 0, 4, 0, 'a', 'c', 'm', 'e'}
	if _, err := conn.Write(wire.AppendFrame(nil, wire.OpHello, payload)); err != nil {
		t.Fatalf("write: %v", err)
	}
	code := readErrFrame(t, conn)
	if code != wire.ErrCodeBadVersion {
		t.Fatalf("code = %v", code)
	}
}

func TestNoHelloAndUnknownOp(t *testing.T) {
	_, addr := testServer(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	// Ping before hello: typed error, connection stays usable.
	if _, err := conn.Write(wire.AppendFrame(nil, wire.OpPing, nil)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if code := readErrFrame(t, conn); code != wire.ErrCodeNoHello {
		t.Fatalf("code = %v", code)
	}
	// Unknown opcode: typed error, still usable.
	if _, err := conn.Write(wire.AppendFrame(nil, wire.Opcode(0x55), nil)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if code := readErrFrame(t, conn); code != wire.ErrCodeUnknownOp {
		t.Fatalf("code = %v", code)
	}
	// A proper hello still succeeds on the same connection.
	if _, err := conn.Write(wire.AppendFrame(nil, wire.OpHello, wire.AppendHello(nil, "acme"))); err != nil {
		t.Fatalf("write: %v", err)
	}
	op, _ := readFrame(t, conn)
	if op != wire.OpOK {
		t.Fatalf("hello response = %v", op)
	}
}

func TestMalformedFrameClosesConnection(t *testing.T) {
	_, addr := testServer(t, func(c *Config) { c.MaxFrame = 1 << 12 })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	// Length over the bound: frame_too_large, then the server closes.
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], 1<<20)
	hdr[4] = byte(wire.OpTxn)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatalf("write: %v", err)
	}
	if code := readErrFrame(t, conn); code != wire.ErrCodeFrameTooLarge {
		t.Fatalf("code = %v", code)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection not closed: %v", err)
	}
}

func TestInflightQuotaRejection(t *testing.T) {
	srv, addr := testServer(t, func(c *Config) {
		c.Tenants = []TenantConfig{{Name: "acme", Tables: []string{"accounts"}, MaxInflight: 2}}
	})
	arrived, release := holdGate(t, srv)

	// A session has at most one transaction in flight, so the quota is
	// reached by sessions: hold MaxInflight of them under their leases.
	held := make(chan error, 2)
	for i := 0; i < 2; i++ {
		c := dial(t, addr, "acme")
		go func(key uint64) {
			_, err := c.Txn().Put("accounts", key, []byte("v")).Exec()
			held <- err
		}(uint64(i))
	}
	<-arrived
	<-arrived

	// The next session's txn is shed at the socket with the quota code.
	if _, err := dial(t, addr, "acme").Txn().Put("accounts", 9, []byte("v")).Exec(); !client.IsCode(err, wire.ErrCodeQuota) {
		t.Fatalf("third session err = %v, want quota", err)
	}
	if n := srv.tenants["acme"].quotaRejects.Load(); n != 1 {
		t.Fatalf("quota rejections = %d", n)
	}
	release()
	for i := 0; i < 2; i++ {
		if err := <-held; err != nil {
			t.Fatalf("held txn: %v", err)
		}
	}
}

func TestSessionQuotaRejection(t *testing.T) {
	_, addr := testServer(t, func(c *Config) {
		c.Tenants = []TenantConfig{{Name: "acme", Tables: []string{"accounts"}, MaxSessions: 1}}
	})
	c1, err := client.Dial(addr, "acme")
	if err != nil {
		t.Fatalf("first dial: %v", err)
	}
	defer c1.Close()
	if _, err := client.Dial(addr, "acme"); !client.IsCode(err, wire.ErrCodeQuota) {
		t.Fatalf("second dial err = %v", err)
	}
	// Releasing the first session frees the slot.
	c1.Close()
	waitFor(t, "session slot release", func() bool {
		c2, err := client.Dial(addr, "acme")
		if err != nil {
			return false
		}
		c2.Close()
		return true
	})
}

func TestOverloadRejection(t *testing.T) {
	srv, addr := testServer(t, func(c *Config) { c.QueueDepth = 1 })
	arrived, release := holdGate(t, srv)

	// Hold every lease in the gate, then park QueueDepth more sessions
	// waiting for one.
	done := make(chan error, 3)
	submit := func(key uint64) {
		c := dial(t, addr, "acme")
		go func() {
			_, err := c.Txn().Put("accounts", key, []byte("v")).Exec()
			done <- err
		}()
	}
	submit(1)
	submit(2)
	<-arrived
	<-arrived
	submit(3)
	waitFor(t, "a session waiting for a lease", func() bool { return srv.waiters.Load() == 1 })

	// The next session overflows without touching a worker.
	if _, err := dial(t, addr, "acme").Txn().Put("accounts", 4, []byte("v")).Exec(); !client.IsCode(err, wire.ErrCodeOverload) {
		t.Fatalf("err = %v, want overload", err)
	}
	if n := srv.m.overloadRejects.Load(); n != 1 {
		t.Fatalf("overload rejections = %d", n)
	}
	select {
	case <-arrived:
		t.Fatal("rejected txn reached a worker")
	default:
	}
	release()
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatalf("held txn: %v", err)
		}
	}
}

// TestWaiterTakesAnyFreedLease: a session that found every lease taken gets
// whichever one is released first. It must not wait for its home worker's
// holder while another worker is free.
func TestWaiterTakesAnyFreedLease(t *testing.T) {
	srv, addr := testServer(t, nil)
	c := dial(t, addr, "acme")
	home := int(srv.nextHome.Load()-1) % len(srv.leases)
	other := (home + 1) % len(srv.leases)
	for i := range srv.leases {
		srv.leases[i].mu.Lock()
	}
	t.Cleanup(func() { srv.release(&srv.leases[home]) })

	done := make(chan error, 1)
	go func() {
		_, err := c.Txn().Put("accounts", 1, []byte("v")).Exec()
		done <- err
	}()
	waitFor(t, "the session to wait for a lease", func() bool { return srv.waiters.Load() == 1 })
	time.Sleep(5 * time.Millisecond) // past the rescans, so it is parked
	srv.release(&srv.leases[other])
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("txn: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session still waits for its home worker while another is free")
	}
}

// TestPipelinedResponsesInRequestOrder writes several requests of every kind
// in one segment and checks that exactly one response per request comes
// back, in request order (docs/PROTOCOL.md "Pipelining and ordering").
func TestPipelinedResponsesInRequestOrder(t *testing.T) {
	_, addr := testServer(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	txn := func(n int, body []byte) []byte {
		return wire.AppendFrame(nil, wire.OpTxn, append(wire.AppendTxnHeader(nil, 0, n), body...))
	}
	result := func(vals ...string) func(*testing.T, wire.Opcode, []byte) {
		return func(t *testing.T, op wire.Opcode, payload []byte) {
			res, err := wire.DecodeResults(payload, nil)
			if op != wire.OpResult || err != nil || len(res) != len(vals) {
				t.Fatalf("got %v with %d results (%v), want %d results", op, len(res), err, len(vals))
			}
			for i, v := range vals {
				if string(res[i].Value) != v {
					t.Fatalf("result %d = %q, want %q", i, res[i].Value, v)
				}
			}
		}
	}
	ok := func(t *testing.T, op wire.Opcode, _ []byte) {
		if op != wire.OpOK {
			t.Fatalf("got %v, want ok", op)
		}
	}
	errCode := func(want wire.ErrCode) func(*testing.T, wire.Opcode, []byte) {
		return func(t *testing.T, op wire.Opcode, payload []byte) {
			code, _, err := wire.DecodeErr(payload)
			if op != wire.OpErr || err != nil || code != want {
				t.Fatalf("got %v code %v (%v), want err %v", op, code, err, want)
			}
		}
	}
	steps := []struct {
		name  string
		frame []byte
		check func(*testing.T, wire.Opcode, []byte)
	}{
		{"hello", wire.AppendFrame(nil, wire.OpHello, wire.AppendHello(nil, "acme")), ok},
		{"put a", txn(1, wire.AppendPut(nil, "accounts", 1, []byte("a"))), result("")},
		{"ping", wire.AppendFrame(nil, wire.OpPing, nil), ok},
		{"get a", txn(1, wire.AppendGet(nil, "accounts", 1)), result("a")},
		{"bad op", wire.AppendFrame(nil, wire.Opcode(0x55), nil), errCode(wire.ErrCodeUnknownOp)},
		{"unknown table", txn(1, wire.AppendGet(nil, "nope", 1)), errCode(wire.ErrCodeNoTable)},
		{"put b, get b", txn(2, wire.AppendGet(wire.AppendPut(nil, "accounts", 1, []byte("b")), "accounts", 1)), result("", "b")},
		{"stats", wire.AppendFrame(nil, wire.OpStats, nil), ok},
	}
	var all []byte
	for _, st := range steps {
		all = append(all, st.frame...)
	}
	if _, err := conn.Write(all); err != nil {
		t.Fatalf("write: %v", err)
	}
	for _, st := range steps {
		op, payload := readFrame(t, conn)
		t.Run(st.name, func(t *testing.T) { st.check(t, op, payload) })
	}
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, err := conn.Read(make([]byte, 1)); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("more responses than requests: read %d bytes, err %v", n, err)
	}
}

func TestGracefulDrain(t *testing.T) {
	srv, addr := testServer(t, nil)
	arrived, release := holdGate(t, srv)
	c := dial(t, addr, "acme")

	// Hold one txn in flight under a lease, then start draining.
	type execResult struct {
		res []wire.Result
		err error
	}
	execDone := make(chan execResult, 1)
	go func() {
		res, err := c.Txn().Put("accounts", 5, []byte("survivor")).Get("accounts", 5).Exec()
		execDone <- execResult{res, err}
	}()
	<-arrived

	drainDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { drainDone <- srv.Drain(ctx) }()
	waitFor(t, "draining flag", func() bool { return srv.draining.Load() })

	// While draining, new connections are refused.
	waitFor(t, "listener closed", func() bool {
		c2, err := client.Dial(addr, "acme")
		if err != nil {
			return true
		}
		c2.Close()
		return false
	})

	// Drain must not finish while the txn is still in flight.
	select {
	case err := <-drainDone:
		t.Fatalf("drain finished with txn in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Release the lease holder: the in-flight txn commits and its response
	// reaches the client before Drain returns.
	release()
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	select {
	case r := <-execDone:
		if r.err != nil {
			t.Fatalf("in-flight txn failed during drain: %v", r.err)
		}
		if len(r.res) != 2 || string(r.res[1].Value) != "survivor" {
			t.Fatalf("in-flight results = %+v", r.res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain returned before the in-flight txn was answered")
	}
}

func TestDrainRejectsNewTxns(t *testing.T) {
	srv, addr := testServer(t, nil)
	arrived, release := holdGate(t, srv)
	blocker := dial(t, addr, "acme")
	other := dial(t, addr, "globex")

	blocked := make(chan error, 1)
	go func() {
		_, err := blocker.Txn().Put("accounts", 1, []byte("x")).Exec()
		blocked <- err
	}()
	<-arrived

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(ctx) }()
	waitFor(t, "draining flag", func() bool { return srv.draining.Load() })

	// A new txn on a live session gets the draining code ...
	if _, err := other.Txn().Put("accounts", 1, []byte("y")).Exec(); !client.IsCode(err, wire.ErrCodeDraining) {
		t.Fatalf("draining err = %v", err)
	}
	// ... while the one already under a lease commits and is answered.
	release()
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-blocked; err != nil {
		t.Fatalf("held txn: %v", err)
	}
}

// TestStalledPeer: a peer that sends transactions and never reads its
// responses blocks only its own session's write. It must not hold the
// (single) worker, and Close must reap it.
func TestStalledPeer(t *testing.T) {
	peer, srvEnd := net.Pipe()         // unbuffered: the session's write blocks at once
	t.Cleanup(func() { peer.Close() }) // after the server's own cleanup, so only Close can unblock the session
	srv, addr := testServer(t, func(c *Config) { c.DB = openDB(1) })
	srv.startSession(srvEnd)
	if _, err := peer.Write(wire.AppendFrame(nil, wire.OpHello, wire.AppendHello(nil, "acme"))); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if op, _ := readFrame(t, peer); op != wire.OpOK {
		t.Fatal("hello failed")
	}
	txn := wire.AppendPut(wire.AppendTxnHeader(nil, 0, 1), "accounts", 1, []byte("v"))
	raw := wire.AppendFrame(nil, wire.OpTxn, txn)
	if _, err := peer.Write(append(append(raw, raw...), raw...)); err != nil {
		t.Fatalf("pipelined txns: %v", err)
	}
	waitFor(t, "first response stuck in the write", func() bool {
		return srv.db.Stats().Commits >= 1 && srv.inflight.Load() == 1
	})

	c := dial(t, addr, "acme")
	for i := 0; i < 1000; i++ {
		if _, err := c.Txn().Put("accounts", 2, []byte{byte(i)}).Get("accounts", 1).Exec(); err != nil {
			t.Fatalf("txn %d behind a stalled peer: %v", i, err)
		}
	}
	waitFor(t, "only the stalled txn in flight", func() bool { return srv.inflight.Load() == 1 })
	// testServer's cleanup closes the server: it hangs here if the stalled
	// session cannot be reaped, and fails if the session leaks a chunk.
}

// TestServerRoundTripAllocBudget pins the whole TCP rung — client build,
// both socket directions, admission, lease, execution through
// cicada.Worker.RunLimited, response encode — at zero allocations per
// transaction, counted process-wide.
func TestServerRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budgets enforced in non-race builds")
	}
	_, addr := testServer(t, nil)
	c := dial(t, addr, "acme")
	val := make([]byte, 64)
	roundTrip := func() {
		res, err := c.Txn().
			Put("accounts", 1, val).Get("accounts", 2).
			Put("accounts", 2, val).Get("accounts", 1).
			Exec()
		if err != nil || len(res) != 4 {
			t.Fatalf("txn: %v (%d results)", err, len(res))
		}
	}
	for i := 0; i < 100; i++ { // inserts, buffer growth, pool fill
		roundTrip()
	}
	if got := testing.AllocsPerRun(2000, roundTrip); got > 0 {
		t.Fatalf("server round trip allocates %.1f/txn, budget 0", got)
	}
}

// readFrame reads one frame off a raw test connection.
func readFrame(t *testing.T, conn net.Conn) (wire.Opcode, []byte) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [5]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatalf("read frame header: %v", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatalf("read frame payload: %v", err)
	}
	return wire.Opcode(hdr[4]), payload
}

// readErrFrame reads one frame and asserts it is an err frame, returning
// its code.
func readErrFrame(t *testing.T, conn net.Conn) wire.ErrCode {
	t.Helper()
	op, payload := readFrame(t, conn)
	if op != wire.OpErr {
		t.Fatalf("opcode = %v, want err", op)
	}
	code, _, err := wire.DecodeErr(payload)
	if err != nil {
		t.Fatalf("DecodeErr: %v", err)
	}
	return code
}

// TestConcurrentClients is the session race test (run under -race via
// RACE_PKGS): several clients per tenant hammer overlapping keys while a
// drain closes everything at the end.
func TestConcurrentClients(t *testing.T) {
	srv, addr := testServer(t, nil)
	const clientsPerTenant = 4
	const txnsPerClient = 50

	errCh := make(chan error, 2*clientsPerTenant)
	for _, tenant := range []string{"acme", "globex"} {
		for i := 0; i < clientsPerTenant; i++ {
			go func(tenant string, id int) {
				c, err := client.Dial(addr, tenant)
				if err != nil {
					errCh <- err
					return
				}
				defer c.Close()
				for n := 0; n < txnsPerClient; n++ {
					key := uint64(n % 8) // deliberate key overlap
					_, err := c.Txn().
						Put("accounts", key, []byte{byte(id), byte(n)}).
						Get("accounts", key).
						Exec()
					if err != nil && !errors.Is(err, cicada.ErrAborted) {
						// Abort-taxonomy errors are legal under contention
						// when the retry budget runs dry.
						if se, ok := err.(*client.ServerError); !ok || se.Code < wire.ErrCodeAbortRTSEarly {
							errCh <- err
							return
						}
					}
				}
				errCh <- nil
			}(tenant, i)
		}
	}
	for i := 0; i < 2*clientsPerTenant; i++ {
		if err := <-errCh; err != nil {
			t.Fatalf("client error: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if n := srv.m.sessionsActive.Load(); n != 0 {
		t.Fatalf("sessions still active after drain: %d", n)
	}
}

// TestServerMetrics checks that the server_* families show up on the
// engine registry with sane values.
func TestServerMetrics(t *testing.T) {
	srv, addr := testServer(t, nil)
	c, err := client.Dial(addr, "acme")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Txn().Put("accounts", 1, []byte("v")).Exec(); err != nil {
		t.Fatalf("txn: %v", err)
	}
	vals := srv.db.MetricValues()
	if vals == nil {
		t.Fatal("no metric values")
	}
	for _, name := range []string{
		"server_sessions_total",
		"server_sessions_active",
		"server_frames_in_total",
		"server_frames_out_total",
		"server_bytes_in_total",
		"server_bytes_out_total",
		"server_malformed_total",
		"server_overload_rejections_total",
		"server_queue_depth",
		"server_draining",
		"server_txns_total_committed",
		"server_tenant_txns_total_acme",
		"server_tenant_quota_rejections_total_acme",
	} {
		if _, ok := vals[name]; !ok {
			t.Errorf("metric %s not registered", name)
		}
	}
	if vals["server_txns_total_committed"] < 1 {
		t.Errorf("committed counter = %v", vals["server_txns_total_committed"])
	}
	if vals["server_sessions_total"] < 1 || vals["server_frames_in_total"] < 2 {
		t.Errorf("session counters: %v / %v", vals["server_sessions_total"], vals["server_frames_in_total"])
	}
}
