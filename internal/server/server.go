// Package server is the cicada-server network service layer: it multiplexes
// many client connections onto the embedded engine's fixed worker set,
// giving each tenant an isolated table namespace with admission quotas.
// docs/SERVER.md describes the architecture; docs/PROTOCOL.md the wire
// format.
//
// The runtime shape follows the engine's own threading discipline
// (PAPER.md §3.1): a transaction runs to completion on one thread with no
// hand-off. Each connection is one goroutine that reads a frame, leases an
// engine worker for exactly the execution of the transaction, stages the
// response into its own internal/buf chunk chain, releases the lease and
// writes the socket itself. The executor set stays the engine's fixed
// DB.Worker(0..N-1): a lease is that worker's mutex, so each worker still
// has one user at a time. The server allocates nothing per request at
// steady state (pinned by TestServerRoundTripAllocBudget, whose budget of
// one is the public Worker.Run* API's own, and by the hotpathalloc gate).
package server

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cicada"
	"cicada/internal/buf"
	"cicada/internal/server/wire"
)

// Config parameterizes a Server.
type Config struct {
	// DB is the embedded engine. The server owns every worker handle
	// (DB.Worker(0..Workers-1)); nothing else may run transactions on
	// this DB while the server is up. Required.
	DB *cicada.DB
	// Tenants statically provisions the tenant namespaces. Required,
	// non-empty.
	Tenants []TenantConfig
	// MaxFrame bounds a request frame (opcode + payload) and is advertised
	// in the hello response. 0 selects wire.DefaultMaxFrame.
	MaxFrame int
	// QueueDepth bounds the sessions that may wait for a worker lease; a
	// txn arriving when that many already wait is rejected with the
	// overload code. 0 selects DefaultQueueDepth.
	QueueDepth int
	// TxnAttempts is the per-transaction conflict-retry budget; an aborted
	// transaction that exhausts it returns its abort reason as a wire
	// error code. 0 selects DefaultTxnAttempts.
	TxnAttempts int
}

// Server-wide defaults.
const (
	DefaultQueueDepth  = 256
	DefaultTxnAttempts = 8

	// idleMaintainEvery is how often the maintenance goroutine runs engine
	// maintenance on every worker no session holds, so the GC horizon keeps
	// advancing while no requests flow (the engine's quiescence protocol
	// needs every worker to keep declaring its clock).
	idleMaintainEvery = 200 * time.Microsecond
	// writeTimeout bounds one response write so a stalled client cannot
	// hold a session forever (the session is closed instead). The worker
	// lease is released before the write, so a stalled client never holds
	// a worker.
	writeTimeout = 30 * time.Second
	// leaseSpins is how many times a session that found every lease taken
	// yields and rescans before it parks.
	leaseSpins = 4
)

// lease is one engine worker and the lock that makes a session its only
// user: the holder may call into w, and the lock's happens-before edge is
// what the worker's single-writer state (telemetry shards, WAL stage chain,
// thread-local clock) relies on. Padded so neighbouring leases do not share
// a cache line.
type lease struct {
	mu sync.Mutex
	w  *cicada.Worker
	_  [48]byte
}

// Server multiplexes client sessions onto the engine's worker set.
type Server struct {
	db          *cicada.DB
	pool        *buf.Pool
	tenants     map[string]*tenant
	leases      []lease // one per engine worker, indexed by worker ID
	queueDepth  int32
	stopCh      chan struct{} // closed to stop the maintenance goroutine
	maintDone   chan struct{}
	sessWG      sync.WaitGroup
	maxFrame    int
	txnAttempts int
	m           *metrics

	draining atomic.Bool
	inflight atomic.Int64  // admitted txns whose response is not yet written
	waiters  atomic.Int32  // sessions waiting for a lease
	nextHome atomic.Uint32 // sessions started; spreads their home workers round-robin

	freedMu sync.Mutex // guards freed
	freed   sync.Cond  // signalled by release while sessions wait

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	// testGate, when set (tests only), is called under the worker lease
	// before each transaction executes; blocking it holds transactions in
	// flight deterministically for quota and drain tests.
	testGate func()
}

// New provisions tenants on db and returns a server ready to Serve. It
// must be called before any transactions run on db (table registration is
// not concurrent-safe).
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	tenants, err := buildTenants(cfg.DB, cfg.Tenants)
	if err != nil {
		return nil, err
	}
	s := &Server{
		db:          cfg.DB,
		pool:        buf.NewPool(0, 0),
		tenants:     tenants,
		leases:      make([]lease, cfg.DB.Workers()),
		queueDepth:  int32(valOr(cfg.QueueDepth, DefaultQueueDepth)),
		stopCh:      make(chan struct{}),
		maintDone:   make(chan struct{}),
		maxFrame:    valOr(cfg.MaxFrame, wire.DefaultMaxFrame),
		txnAttempts: valOr(cfg.TxnAttempts, DefaultTxnAttempts),
		conns:       make(map[net.Conn]struct{}),
		m:           &metrics{},
	}
	s.freed.L = &s.freedMu
	for id := range s.leases {
		s.leases[id].w = cfg.DB.Worker(id)
	}
	if reg := cfg.DB.Telemetry(); reg != nil {
		s.register(reg)
	}
	go s.maintainLoop()
	return s, nil
}

// Serve accepts connections on ln until the listener is closed (Drain and
// Close do this). It returns nil on a drain-initiated stop, else the
// accept error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.startSession(c)
	}
}

// startSession runs a session for c on its own goroutine, unless the
// server is shutting down (c is then closed).
func (s *Server) startSession(c net.Conn) {
	s.mu.Lock()
	if s.closed || s.draining.Load() {
		s.mu.Unlock()
		c.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.sessWG.Add(1)
	s.mu.Unlock()
	s.m.sessionsTotal.Add(1)
	s.m.sessionsActive.Add(1)
	go func() {
		defer s.sessWG.Done()
		newSession(s, c).run()
		s.m.sessionsActive.Add(-1)
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
}

// Drain gracefully shuts the server down: stop accepting, let every
// admitted transaction finish and its response flush, then stop the
// maintenance goroutine and close remaining sessions. It returns ctx.Err()
// if the context expires first (remaining work is then force-closed), else
// nil.
func (s *Server) Drain(ctx context.Context) error {
	// Phase 1: reject new transactions and connections.
	s.draining.Store(true)
	s.mu.Lock()
	ln := s.ln
	alreadyClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if alreadyClosed {
		return nil
	}
	if ln != nil {
		ln.Close()
	}

	// Phase 2: wait for the in-flight count to hit zero. Every admitted
	// txn holds a reference until its response is written (or its session
	// dies), and a session takes its reference before it checks the
	// draining flag, so zero means all accepted work is answered.
	var drainErr error
	for s.inflight.Load() > 0 && drainErr == nil {
		select {
		case <-ctx.Done():
			drainErr = ctx.Err()
		case <-time.After(500 * time.Microsecond):
		}
	}

	// Phase 3: stop idle maintenance.
	close(s.stopCh)
	<-s.maintDone

	// Phase 4: close every remaining connection; session goroutines
	// unblock from reads/writes and exit (one still executing finishes its
	// transaction first, then fails its write).
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.sessWG.Wait()
	return drainErr
}

// Close shuts down immediately: in-flight work is abandoned (a session
// still finishes the transaction it is executing) and connections are
// force-closed.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx)
	return nil
}

// acquire leases an engine worker for one transaction: the first free one
// starting from home. With none free it registers as a waiter, rescans a few
// times (a collision is usually over within a transaction's few
// microseconds, so parking at once costs more than it saves), then parks
// until any lease is released: waiting for one particular holder would
// leave the session stuck behind it while other workers sit idle. It
// returns nil, holding nothing, when QueueDepth sessions are already
// waiting.
func (s *Server) acquire(home int) *lease {
	if l := s.tryLease(home); l != nil {
		return l
	}
	if s.waiters.Add(1) > s.queueDepth {
		s.waiters.Add(-1)
		return nil
	}
	defer s.waiters.Add(-1)
	for i := 0; i < leaseSpins; i++ {
		runtime.Gosched()
		if l := s.tryLease(home); l != nil {
			return l
		}
	}
	s.freedMu.Lock()
	defer s.freedMu.Unlock()
	for {
		if l := s.tryLease(home); l != nil {
			return l
		}
		s.freed.Wait()
	}
}

// tryLease takes the first free lease starting from home, or returns nil.
func (s *Server) tryLease(home int) *lease {
	for i := range s.leases {
		if l := &s.leases[(home+i)%len(s.leases)]; l.mu.TryLock() {
			return l
		}
	}
	return nil
}

// release returns l and wakes one parked waiter, if any. A waiter counts
// itself in s.waiters before its last scan under freedMu, so either that
// scan sees l free or this load sees the waiter.
func (s *Server) release(l *lease) {
	l.mu.Unlock()
	if s.waiters.Load() > 0 {
		s.freedMu.Lock()
		s.freed.Signal()
		s.freedMu.Unlock()
	}
}

// maintainLoop runs engine maintenance on every worker that is not leased,
// once per idleMaintainEvery, until Drain stops it.
func (s *Server) maintainLoop() {
	defer close(s.maintDone)
	tick := time.NewTicker(idleMaintainEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			for i := range s.leases {
				if l := &s.leases[i]; l.mu.TryLock() {
					l.w.Idle()
					s.release(l)
				}
			}
		case <-s.stopCh:
			return
		}
	}
}

// releaseChain drops every chunk of a detached chain.
func releaseChain(head *buf.Chunk) {
	for c := head; c != nil; {
		n := c.Next()
		c.Release()
		c = n
	}
}

// execStmt runs one statement inside tx, staging its result.
func execStmt(tx *cicada.Txn, bw *buf.Writer, st *wire.Stmt, tt *tenantTable) error {
	switch st.Kind {
	case wire.StGet:
		rid, err := tt.idx.Get(tx, st.Key)
		if errors.Is(err, cicada.ErrNotFound) {
			wire.AppendResult(bw, wire.StatusNotFound, nil)
			return nil
		}
		if err != nil {
			return err
		}
		val, err := tx.Read(tt.tbl, rid)
		if err != nil {
			return err
		}
		wire.AppendResult(bw, wire.StatusOK, val)
	case wire.StPut:
		rid, err := tt.idx.Get(tx, st.Key)
		switch {
		case errors.Is(err, cicada.ErrNotFound):
			rid, b, ierr := tx.Insert(tt.tbl, len(st.Value))
			if ierr != nil {
				return ierr
			}
			copy(b, st.Value)
			if ierr := tt.idx.Insert(tx, st.Key, rid); ierr != nil {
				return ierr
			}
		case err != nil:
			return err
		default:
			b, uerr := tx.Update(tt.tbl, rid, len(st.Value))
			if uerr != nil {
				return uerr
			}
			copy(b, st.Value)
		}
		wire.AppendResult(bw, wire.StatusOK, nil)
	case wire.StDelete:
		rid, err := tt.idx.Get(tx, st.Key)
		if errors.Is(err, cicada.ErrNotFound) {
			wire.AppendResult(bw, wire.StatusNotFound, nil)
			return nil
		}
		if err != nil {
			return err
		}
		if err := tx.Delete(tt.tbl, rid); err != nil {
			return err
		}
		if err := tt.idx.Delete(tx, st.Key, rid); err != nil {
			return err
		}
		wire.AppendResult(bw, wire.StatusOK, nil)
	}
	return nil
}

// classify maps an engine error to its wire code (docs/PROTOCOL.md error
// table).
func classify(err error) (wire.ErrCode, string) {
	var ab *cicada.AbortedError
	switch {
	case errors.As(err, &ab):
		return wire.AbortCode(uint8(ab.Reason)), "retry budget exhausted"
	case errors.Is(err, cicada.ErrNotFound):
		return wire.ErrCodeNotFound, "not found"
	case errors.Is(err, cicada.ErrDuplicate):
		return wire.ErrCodeDuplicate, "duplicate key"
	case errors.Is(err, cicada.ErrReadOnly):
		return wire.ErrCodeReadOnly, "write in read-only txn"
	default:
		return wire.ErrCodeInternal, "internal error"
	}
}
