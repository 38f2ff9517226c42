// Package client is the Go client for cicada-server's wire protocol
// (docs/PROTOCOL.md). It is deliberately thin: a synchronous
// one-request-at-a-time connection plus a batched transaction builder —
// enough for the test suite, the server smoke test, and cicada-bench's
// -server-addr mode. Open several clients for concurrency; the server
// multiplexes them onto its fixed worker set.
package client

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cicada/internal/server/wire"
)

// ServerError is a typed wire error returned by the server.
type ServerError struct {
	Code wire.ErrCode
	Msg  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("cicada server: %s (%d): %s", e.Code, uint16(e.Code), e.Msg)
}

// IsCode reports whether err is a ServerError with the given code.
func IsCode(err error, code wire.ErrCode) bool {
	se, ok := err.(*ServerError)
	return ok && se.Code == code
}

// Client is one connection to a cicada-server, bound to a tenant by the
// hello handshake. Safe for use by one goroutine at a time (an internal
// mutex serializes concurrent callers, but they gain no parallelism).
type Client struct {
	mu       sync.Mutex
	conn     net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	payload  []byte // reused response payload buffer
	out      []byte // reused request build buffer
	maxFrame uint32
	tables   []string
	results  []wire.Result
	hdr      [wire.FrameHeaderLen]byte // frame header scratch, request then response

	// txn is the Txn that Txn and ReadOnlyTxn hand out while txnOut is
	// clear; Exec returns it. Its body buffer is kept across uses, so
	// building and executing a transaction allocates nothing.
	txn    Txn
	txnOut atomic.Bool
}

// Dial connects to addr and performs the hello handshake as tenant.
func Dial(addr, tenant string) (*Client, error) {
	return DialTimeout(addr, tenant, 5*time.Second)
}

// DialTimeout is Dial with a connect timeout.
func DialTimeout(addr, tenant string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := newClient(conn)
	if err := c.hello(tenant); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func newClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<16),
		bw:   bufio.NewWriterSize(conn, 1<<16),
	}
}

func (c *Client) hello(tenant string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	op, payload, err := c.roundTrip(wire.OpHello, wire.AppendHello(c.out[:0], tenant))
	if err != nil {
		return err
	}
	if op != wire.OpOK {
		return fmt.Errorf("client: unexpected hello response opcode %v", op)
	}
	h, err := wire.DecodeHelloOK(payload)
	if err != nil {
		return err
	}
	if h.Major != wire.ProtoMajor {
		return fmt.Errorf("client: server speaks protocol %d.%d, want major %d",
			h.Major, h.Minor, wire.ProtoMajor)
	}
	c.maxFrame = h.MaxFrame
	c.tables = h.Tables
	return nil
}

// Tables returns the tenant's table namespace as advertised in the hello
// response.
func (c *Client) Tables() []string { return c.tables }

// MaxFrame returns the server's advertised frame bound.
func (c *Client) MaxFrame() uint32 { return c.maxFrame }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	op, _, err := c.roundTrip(wire.OpPing, nil)
	if err != nil {
		return err
	}
	if op != wire.OpOK {
		return fmt.Errorf("client: unexpected ping response opcode %v", op)
	}
	return nil
}

// Stats fetches engine-wide outcome counters and the tenant's admission
// state.
func (c *Client) Stats() (wire.Stats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	op, payload, err := c.roundTrip(wire.OpStats, nil)
	if err != nil {
		return wire.Stats{}, err
	}
	if op != wire.OpOK {
		return wire.Stats{}, fmt.Errorf("client: unexpected stats response opcode %v", op)
	}
	return wire.DecodeStats(payload)
}

// Txn starts a batched transaction. Statements accumulate client-side and
// ship as one frame on Exec; the server runs them as one serializable
// transaction. A Txn is spent after Exec: start the next one with Txn. One
// that will not be executed should be handed back with Discard; dropping it
// instead costs every later transaction of this client an allocation.
func (c *Client) Txn() *Txn { return c.newTxn(0) }

// ReadOnlyTxn starts a batched read-only snapshot transaction (consistent,
// never aborts; writes are rejected).
func (c *Client) ReadOnlyTxn() *Txn { return c.newTxn(wire.TxnReadOnly) }

// newTxn hands out the client's recycled Txn, or a fresh one while that is
// still outstanding (started and not yet executed).
func (c *Client) newTxn(flags byte) *Txn {
	if !c.txnOut.CompareAndSwap(false, true) {
		return &Txn{c: c, flags: flags}
	}
	t := &c.txn
	t.c, t.flags, t.n, t.body = c, flags, 0, t.body[:0]
	return t
}

// Txn accumulates statements for one batched transaction. It must not be
// used after Exec or Discard: the client recycles it for a later transaction.
type Txn struct {
	c     *Client
	flags byte
	n     int
	body  []byte
}

// Get appends a point read of table[key].
func (t *Txn) Get(table string, key uint64) *Txn {
	t.body = wire.AppendGet(t.body, table, key)
	t.n++
	return t
}

// Put appends an upsert of table[key] = val.
func (t *Txn) Put(table string, key uint64, val []byte) *Txn {
	t.body = wire.AppendPut(t.body, table, key, val)
	t.n++
	return t
}

// Delete appends a delete of table[key].
func (t *Txn) Delete(table string, key uint64) *Txn {
	t.body = wire.AppendDelete(t.body, table, key)
	t.n++
	return t
}

// Discard abandons a transaction that will not be executed; like Exec, it
// spends the Txn.
func (t *Txn) Discard() {
	if t == &t.c.txn {
		t.c.txnOut.Store(false)
	}
}

// Exec ships the batch and returns the per-statement results in statement
// order. Result values alias the client's reusable read buffer: they are
// valid until the client's next request. A *ServerError carries the wire
// error code (including the abort taxonomy) on failure.
func (t *Txn) Exec() ([]wire.Result, error) {
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if t == &c.txn {
		defer c.txnOut.Store(false)
	}
	if t.n == 0 {
		return nil, fmt.Errorf("client: empty transaction")
	}
	payload := wire.AppendTxnHeader(c.out[:0], t.flags, t.n)
	payload = append(payload, t.body...)
	c.out = payload[:0]
	op, resp, err := c.roundTrip(wire.OpTxn, payload)
	if err != nil {
		return nil, err
	}
	if op != wire.OpResult {
		return nil, fmt.Errorf("client: unexpected txn response opcode %v", op)
	}
	c.results, err = wire.DecodeResults(resp, c.results[:0])
	if err != nil {
		return nil, err
	}
	return c.results, nil
}

// roundTrip writes one request frame and reads one response frame,
// translating err frames into *ServerError. Callers hold c.mu.
func (c *Client) roundTrip(op wire.Opcode, payload []byte) (wire.Opcode, []byte, error) {
	hdr := c.hdr[:]
	binary.LittleEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = byte(op)
	if _, err := c.bw.Write(hdr); err != nil {
		return 0, nil, err
	}
	if _, err := c.bw.Write(payload); err != nil {
		return 0, nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	return c.readFrame()
}

func (c *Client) readFrame() (wire.Opcode, []byte, error) {
	hdr := c.hdr[:]
	if _, err := io.ReadFull(c.br, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 || n > wire.DefaultMaxFrame*4 {
		return 0, nil, fmt.Errorf("client: bad response frame length %d", n)
	}
	op := wire.Opcode(hdr[4])
	if cap(c.payload) < int(n)-1 {
		c.payload = make([]byte, int(n)-1)
	}
	payload := c.payload[:int(n)-1]
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return 0, nil, err
	}
	if op == wire.OpErr {
		code, msg, err := wire.DecodeErr(payload)
		if err != nil {
			return 0, nil, err
		}
		return op, nil, &ServerError{Code: code, Msg: msg}
	}
	return op, payload, nil
}
