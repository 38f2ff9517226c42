package server

import (
	"bufio"
	"errors"
	"io"
	"time"

	"cicada"
	"cicada/internal/buf"
	"cicada/internal/server/wire"
)

// session is one client connection and the one goroutine that does
// everything for it: frame a request, answer it (handshake and admission
// traffic directly, a transaction by executing it inline under a worker
// lease), write the response, repeat. Responses are in request order
// because one goroutine produces them.
//
// The fields below enc are the per-session execution state of the
// transaction in progress; attempt reads them, so no closure is built per
// transaction.
type session struct {
	srv  *Server
	conn netConn
	ten  *tenant
	home int                       // worker whose lease this session tries first
	hdr  [wire.FrameHeaderLen]byte // ReadFrame scratch
	enc  buf.Writer                // staging for the response being built

	stmts   []wire.Stmt    // decoded statements; alias the request payload
	tabs    []*tenantTable // stmts[i]'s table
	patch   wire.FramePatch
	attempt func(tx *cicada.Txn) error // s.runStmts, bound once
}

func newSession(s *Server, c netConn) *session {
	sess := &session{srv: s, conn: c, home: int((s.nextHome.Add(1) - 1) % uint32(len(s.leases)))}
	sess.enc.Init(s.pool)
	sess.attempt = sess.runStmts
	return sess
}

// run services the connection until it closes, a write fails, or a fatal
// protocol violation occurs; it returns with all bookkeeping released.
func (s *session) run() {
	br := bufio.NewReaderSize(s.conn, 4096)
	for {
		op, payload, err := wire.ReadFrame(br, s.srv.pool, s.srv.maxFrame, s.hdr[:])
		fatal := err != nil
		switch {
		case err == nil:
			s.srv.m.framesIn.Add(1)
			n := uint64(wire.FrameHeaderLen)
			if payload != nil {
				n += uint64(payload.Len())
			}
			s.srv.m.bytesIn.Add(n)
			fatal = s.dispatch(op, payload)
		case errors.Is(err, wire.ErrFrameTooLarge):
			s.srv.m.malformed.Add(1)
			wire.EncodeErr(&s.enc, wire.ErrCodeFrameTooLarge, "frame too large")
		case errors.Is(err, wire.ErrMalformed):
			s.srv.m.malformed.Add(1)
			wire.EncodeErr(&s.enc, wire.ErrCodeMalformed, "malformed frame")
		} // io.EOF / connection errors: nothing to answer.
		if s.flush() != nil || fatal {
			break
		}
	}
	s.conn.Close()
	if s.ten != nil {
		s.ten.sessions.Add(-1)
	}
}

// dispatch handles one request frame, leaving its response staged in s.enc
// (a transaction's response is already written when it returns). It owns
// payload (possibly nil). The return value reports that the connection
// must close: a protocol violation after which framing may be out of sync,
// or a failed write.
func (s *session) dispatch(op wire.Opcode, payload *buf.Chunk) (fatal bool) {
	if op == wire.OpTxn {
		return s.txn(payload)
	}
	var pb []byte
	if payload != nil {
		defer payload.Release()
		pb = payload.Bytes()
	}
	switch {
	case op == wire.OpHello:
		return s.hello(pb)
	case op != wire.OpPing && op != wire.OpStats:
		wire.EncodeErr(&s.enc, wire.ErrCodeUnknownOp, "unknown opcode")
	case s.ten == nil:
		wire.EncodeErr(&s.enc, wire.ErrCodeNoHello, "hello required")
	case op == wire.OpPing:
		wire.EncodeEmpty(&s.enc, wire.OpOK)
	default:
		es := s.srv.db.Stats()
		s.stageOK(wire.AppendStats(nil, wire.Stats{
			Commits:        es.Commits,
			Aborts:         es.Aborts,
			TenantInflight: uint32(s.ten.inflight.Load()),
			TenantSessions: uint32(s.ten.sessions.Load()),
		}))
	}
	return false
}

// hello binds the session to its tenant. Every rejection is fatal.
func (s *session) hello(pb []byte) (fatal bool) {
	reject := func(code wire.ErrCode, msg string) bool {
		wire.EncodeErr(&s.enc, code, msg)
		return true
	}
	if s.ten != nil {
		return reject(wire.ErrCodeMalformed, "duplicate hello")
	}
	h, err := wire.DecodeHello(pb)
	if err != nil {
		s.srv.m.malformed.Add(1)
		return reject(wire.ErrCodeMalformed, "bad hello")
	}
	if h.Major != wire.ProtoMajor {
		return reject(wire.ErrCodeBadVersion, "unsupported protocol version")
	}
	ten := s.srv.tenants[string(h.Tenant)]
	if ten == nil {
		return reject(wire.ErrCodeUnknownTenant, "unknown tenant")
	}
	if n := ten.sessions.Add(1); n > ten.maxSessions {
		ten.sessions.Add(-1)
		ten.quotaRejects.Add(1)
		return reject(wire.ErrCodeQuota, "tenant session quota exhausted")
	}
	s.ten = ten
	s.stageOK(wire.AppendHelloOK(nil, uint32(s.srv.maxFrame), ten.tableNames))
	return false
}

// stageOK stages an ok frame carrying pb (cold path: hello and stats).
func (s *session) stageOK(pb []byte) {
	p := wire.BeginFrame(&s.enc, wire.OpOK)
	copy(s.enc.Frame(len(pb)), pb)
	p.Finish(&s.enc)
}

// txn admits, executes and answers one transaction frame; it owns payload.
// Admission sheds at the socket: a rejected transaction never touches a
// worker. An admitted one counts as in flight until its response is
// written, and the worker lease covers execution only, never the write.
//
//cicada:noalloc
func (s *session) txn(payload *buf.Chunk) (fatal bool) {
	defer releaseIf(payload)
	srv, ten := s.srv, s.ten
	if ten == nil {
		wire.EncodeErr(&s.enc, wire.ErrCodeNoHello, "hello required")
		return false
	}
	if payload == nil {
		srv.m.malformed.Add(1)
		wire.EncodeErr(&s.enc, wire.ErrCodeMalformed, "empty txn")
		return false
	}
	// The reference is taken before the draining check, and Drain raises
	// the flag before it reads the count: one of the two sees the other.
	srv.inflight.Add(1)
	defer srv.inflight.Add(-1)
	if srv.draining.Load() {
		wire.EncodeErr(&s.enc, wire.ErrCodeDraining, "server draining")
		return false
	}
	n := ten.inflight.Add(1)
	defer ten.inflight.Add(-1)
	if n > ten.maxInflight {
		ten.quotaRejects.Add(1)
		wire.EncodeErr(&s.enc, wire.ErrCodeQuota, "tenant inflight quota exhausted")
		return false
	}
	l := srv.acquire(s.home)
	if l == nil {
		srv.m.overloadRejects.Add(1)
		wire.EncodeErr(&s.enc, wire.ErrCodeOverload, "too many sessions waiting for a worker")
		return false
	}
	if srv.testGate != nil {
		srv.testGate()
	}
	s.execTxn(l.w, payload.Bytes())
	srv.release(l)
	return s.flush() != nil
}

// execTxn decodes and executes one transaction on the leased worker w,
// leaving the result or error frame staged in s.enc.
//
//cicada:noalloc
func (s *session) execTxn(w *cicada.Worker, payload []byte) {
	m, id := s.srv.m, w.ID()
	var start time.Time
	if m.txnLatency != nil {
		start = time.Now()
	}
	s.ten.txns.Add(1)
	readOnly, code, msg := s.decode(payload)
	if code == 0 {
		var err error
		if readOnly {
			err = w.RunReadOnly(s.attempt)
		} else {
			err = w.RunLimited(s.attempt, s.srv.txnAttempts)
		}
		if m.txnLatency != nil {
			m.txnLatency.Shard(id).ObserveDuration(time.Since(start))
		}
		if err == nil {
			inc(m.txnCommitted, id)
			s.patch.Finish(&s.enc)
			return
		}
		s.dropStaged() // the failed attempt's partial result frame
		code, msg = classify(err)
	}
	if code >= wire.ErrCodeAbortRTSEarly {
		inc(m.txnAborted, id)
	} else {
		inc(m.txnError, id)
	}
	wire.EncodeErr(&s.enc, code, msg)
}

// decode parses the txn payload into s.stmts and resolves every
// statement's table in the tenant namespace into s.tabs (the set is static,
// so one failed lookup fails the whole txn before any engine work). A zero
// code means the transaction is ready to run.
//
//cicada:noalloc
func (s *session) decode(payload []byte) (readOnly bool, code wire.ErrCode, msg string) {
	flags, stmts, err := wire.DecodeTxn(payload, s.stmts[:0])
	s.stmts = stmts
	if err != nil {
		s.srv.m.malformed.Add(1)
		return false, wire.ErrCodeMalformed, "bad txn payload"
	}
	readOnly = flags&wire.TxnReadOnly != 0
	s.tabs = s.tabs[:0]
	for i := range stmts {
		st := &stmts[i]
		if readOnly && st.Kind != wire.StGet {
			return readOnly, wire.ErrCodeReadOnly, "write in read-only txn"
		}
		tt := s.ten.tables[string(st.Table)]
		if tt == nil {
			return readOnly, wire.ErrCodeNoTable, "unknown table"
		}
		s.tabs = append(s.tabs, tt)
	}
	return readOnly, 0, ""
}

// runStmts is one attempt of the transaction in s.stmts. It may run several
// times (conflict retries); each attempt restarts the staged result frame
// from scratch.
//
//cicada:noalloc
func (s *session) runStmts(tx *cicada.Txn) error {
	s.dropStaged()
	s.patch = wire.BeginFrame(&s.enc, wire.OpResult)
	wire.AppendResultCount(&s.enc, len(s.stmts))
	for i := range s.stmts {
		if err := execStmt(tx, &s.enc, &s.stmts[i], s.tabs[i]); err != nil {
			return err
		}
	}
	return nil
}

// dropStaged discards whatever is staged in s.enc.
func (s *session) dropStaged() {
	head, _, _ := s.enc.Detach()
	releaseChain(head)
}

// flush writes the staged response, if any, with a bounded deadline, and
// releases its chunks whether or not the write succeeded.
//
//cicada:noalloc
func (s *session) flush() error {
	head, _, _ := s.enc.Detach()
	if head == nil {
		return nil
	}
	defer releaseChain(head)
	if d, ok := s.conn.(deadlineConn); ok {
		d.SetWriteDeadline(time.Now().Add(writeTimeout))
	}
	var bytes uint64
	defer func() { s.srv.m.bytesOut.Add(bytes) }()
	for c := head; c != nil; c = c.Next() {
		b := c.Bytes()
		for len(b) > 0 {
			n, err := s.conn.Write(b)
			bytes += uint64(n)
			if err != nil {
				return err
			}
			b = b[n:]
		}
	}
	s.srv.m.framesOut.Add(1)
	return nil
}

func releaseIf(c *buf.Chunk) {
	if c != nil {
		c.Release()
	}
}

// netConn is the subset of net.Conn the session needs (tests can use
// pipes).
type netConn interface {
	io.ReadWriteCloser
}

type deadlineConn interface {
	SetWriteDeadline(t time.Time) error
}
