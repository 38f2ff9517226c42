// Package wire defines the cicada-server wire protocol ("CICP"): a
// RESP-like length-prefixed binary framing whose server-side encoder works
// directly on internal/buf pooled chunks, so response encode is
// allocation-free on the hot path (the same zero-copy discipline as the
// WAL's staged redo chains — see docs/PROTOCOL.md for the full frame
// grammar, opcode and error-code tables, and versioning rules).
//
// Frame layout (all integers little-endian):
//
//	u32 length   bytes that follow the length field (opcode + payload)
//	u8  opcode
//	...          payload, length-1 bytes
//
// A frame's payload is always contiguous in memory: the session
// pulls each request into one pooled chunk (oversize requests get a
// dedicated chunk), and decode works in place over that buffer without
// copying. Responses are staged into a buf.Writer chunk chain; a response
// larger than one chunk simply spans chunks in the chain, and the reserved
// header is patched with the final length before the chain is written out.
//
// Versioning (docs/PROTOCOL.md "Versioning and compatibility"): the major
// version must match exactly; opcodes, statement kinds, and error codes are
// append-only and never renumbered; unknown trailing bytes in a hello
// payload are ignored so minor revisions can extend the handshake.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cicada/internal/buf"
)

// Protocol version, sent in hello and echoed in the hello response.
const (
	ProtoMajor = 1
	ProtoMinor = 0
)

// Framing limits.
const (
	// FrameHeaderLen is the fixed frame prefix: u32 length + u8 opcode.
	FrameHeaderLen = 5
	// ResultHeaderLen is the fixed per-statement result prefix:
	// u8 status + u32 value length.
	ResultHeaderLen = 5
	// DefaultMaxFrame bounds a frame's length field (opcode + payload)
	// unless the server configures its own bound; it is advertised in the
	// hello response so clients can size requests.
	DefaultMaxFrame = 1 << 20
	// MaxStatements bounds the statement count of one txn frame.
	MaxStatements = 1024
	// MaxTableName bounds a table name inside a statement (u8 length).
	MaxTableName = 255
)

// Opcode identifies a frame's meaning. Requests occupy 0x01–0x7F,
// responses 0x80–0xFF; values are append-only and never renumbered.
type Opcode uint8

// Request opcodes (client → server).
const (
	// OpHello opens a session: protocol version plus tenant name. It must
	// be the first frame on a connection.
	OpHello Opcode = 0x01
	// OpPing is a liveness probe; the server answers with an empty ok.
	OpPing Opcode = 0x02
	// OpTxn submits one whole multi-statement transaction for execution on
	// the fixed worker set.
	OpTxn Opcode = 0x03
	// OpStats asks for the session tenant's counters.
	OpStats Opcode = 0x04
)

// Response opcodes (server → client).
const (
	// OpOK acknowledges hello/ping/stats; the payload shape depends on the
	// request it answers (responses arrive in request order).
	OpOK Opcode = 0x80
	// OpResult carries a txn's per-statement results.
	OpResult Opcode = 0x81
	// OpErr reports a request-level failure as a typed error code.
	OpErr Opcode = 0xFF
)

// opcodeNames is the opcode catalog. The protodrift analyzer cross-checks
// it against the opcode table in docs/PROTOCOL.md, both directions.
var opcodeNames = map[Opcode]string{
	OpHello:  "hello",
	OpPing:   "ping",
	OpTxn:    "txn",
	OpStats:  "stats",
	OpOK:     "ok",
	OpResult: "result",
	OpErr:    "err",
}

// String returns the opcode's stable catalog name.
func (o Opcode) String() string {
	if s, ok := opcodeNames[o]; ok {
		return s
	}
	return fmt.Sprintf("opcode(0x%02x)", uint8(o))
}

// StmtKind identifies one statement inside a txn frame.
type StmtKind uint8

const (
	// StGet reads the value under a key; a missing key is a per-statement
	// not_found status, not a transaction error.
	StGet StmtKind = 1
	// StPut upserts the value under a key (blind write; the transaction
	// still validates serializably).
	StPut StmtKind = 2
	// StDelete removes a key; missing keys report not_found status.
	StDelete StmtKind = 3
)

// stmtKindNames is the statement catalog, drift-checked against the
// statement table in docs/PROTOCOL.md.
var stmtKindNames = map[StmtKind]string{
	StGet:    "get",
	StPut:    "put",
	StDelete: "delete",
}

// String returns the statement kind's stable catalog name.
func (k StmtKind) String() string {
	if s, ok := stmtKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("stmt(%d)", uint8(k))
}

// Per-statement result statuses.
const (
	// StatusOK marks a statement that applied (gets carry the value).
	StatusOK = 0
	// StatusNotFound marks a get/delete whose key was absent at the
	// transaction's timestamp.
	StatusNotFound = 1
)

// ErrCode is a typed wire error. Codes 1–31 are protocol/admission errors;
// 32–39 mirror the engine's 8-reason abort taxonomy
// (docs/OBSERVABILITY.md), reported when a transaction exhausts its
// server-side retry budget. Codes are append-only and never renumbered.
type ErrCode uint16

const (
	// ErrCodeMalformed reports an unparseable frame; the connection closes
	// because framing may be out of sync.
	ErrCodeMalformed ErrCode = 1
	// ErrCodeUnknownOp reports an opcode outside the catalog.
	ErrCodeUnknownOp ErrCode = 2
	// ErrCodeBadVersion reports a hello whose major version differs.
	ErrCodeBadVersion ErrCode = 3
	// ErrCodeNoHello reports a request before the hello handshake.
	ErrCodeNoHello ErrCode = 4
	// ErrCodeUnknownTenant reports a hello naming an unprovisioned tenant.
	ErrCodeUnknownTenant ErrCode = 5
	// ErrCodeNoTable reports a statement naming a table outside the
	// tenant's namespace.
	ErrCodeNoTable ErrCode = 6
	// ErrCodeFrameTooLarge reports a length field over the advertised
	// bound; the connection closes.
	ErrCodeFrameTooLarge ErrCode = 7
	// ErrCodeQuota is the per-tenant admission rejection (session or
	// in-flight quota exhausted).
	ErrCodeQuota ErrCode = 8
	// ErrCodeOverload is the global admission rejection (too many sessions
	// of any tenant already waiting for a worker).
	ErrCodeOverload ErrCode = 9
	// ErrCodeDraining rejects new work while the server drains for
	// shutdown.
	ErrCodeDraining ErrCode = 10
	// ErrCodeNotFound maps a transaction that failed with the engine's
	// not-found sentinel (e.g. an application-level lookup contract).
	ErrCodeNotFound ErrCode = 11
	// ErrCodeDuplicate maps a unique-index violation.
	ErrCodeDuplicate ErrCode = 12
	// ErrCodeInternal is an unclassified server-side failure.
	ErrCodeInternal ErrCode = 13
	// ErrCodeReadOnly reports a put or delete inside a read-only txn.
	ErrCodeReadOnly ErrCode = 14

	// ErrCodeAbortRTSEarly .. ErrCodeAbortUser mirror the abort taxonomy:
	// code = 32 + core.AbortReason.
	ErrCodeAbortRTSEarly      ErrCode = 32
	ErrCodeAbortWriteLatest   ErrCode = 33
	ErrCodeAbortPrecheck      ErrCode = 34
	ErrCodeAbortValidation    ErrCode = 35
	ErrCodeAbortPendingWait   ErrCode = 36
	ErrCodeAbortPrecommitHook ErrCode = 37
	ErrCodeAbortLogger        ErrCode = 38
	ErrCodeAbortUser          ErrCode = 39
)

// errorCodeNames is the error-code catalog, drift-checked against the
// error table in docs/PROTOCOL.md. The abort_* names deliberately append
// "abort_" to the engine's stable abort-reason label so dashboards can
// correlate the two taxonomies.
var errorCodeNames = map[ErrCode]string{
	ErrCodeMalformed:          "malformed",
	ErrCodeUnknownOp:          "unknown_op",
	ErrCodeBadVersion:         "bad_version",
	ErrCodeNoHello:            "no_hello",
	ErrCodeUnknownTenant:      "unknown_tenant",
	ErrCodeNoTable:            "no_table",
	ErrCodeFrameTooLarge:      "frame_too_large",
	ErrCodeQuota:              "quota",
	ErrCodeOverload:           "overload",
	ErrCodeDraining:           "draining",
	ErrCodeNotFound:           "not_found",
	ErrCodeDuplicate:          "duplicate",
	ErrCodeInternal:           "internal",
	ErrCodeReadOnly:           "read_only",
	ErrCodeAbortRTSEarly:      "abort_rts_early",
	ErrCodeAbortWriteLatest:   "abort_write_latest",
	ErrCodeAbortPrecheck:      "abort_precheck",
	ErrCodeAbortValidation:    "abort_validation",
	ErrCodeAbortPendingWait:   "abort_pending_wait",
	ErrCodeAbortPrecommitHook: "abort_precommit_hook",
	ErrCodeAbortLogger:        "abort_logger",
	ErrCodeAbortUser:          "abort_user",
}

// String returns the error code's stable catalog name.
func (c ErrCode) String() string {
	if s, ok := errorCodeNames[c]; ok {
		return s
	}
	return fmt.Sprintf("errcode(%d)", uint16(c))
}

// AbortCode maps an engine abort reason (core.AbortReason, 0–7) to its wire
// error code. Out-of-range reasons map to ErrCodeInternal so a future
// taxonomy growth cannot alias an unrelated code.
func AbortCode(reason uint8) ErrCode {
	c := ErrCodeAbortRTSEarly + ErrCode(reason)
	if c > ErrCodeAbortUser {
		return ErrCodeInternal
	}
	return c
}

// Decode errors. Every malformed input maps to an error satisfying
// errors.Is(err, ErrMalformed) (ErrFrameTooLarge additionally carries its
// own identity); decode never panics and never reads past the payload.
var (
	ErrMalformed     = errors.New("wire: malformed frame")
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum length")
)

// Stmt is one decoded statement. Table and Value alias the request
// payload: they are valid while the request's chunk is held and must not
// be retained past it.
type Stmt struct {
	Kind  StmtKind
	Table []byte
	Key   uint64
	Value []byte
}

// Txn frame flag bits.
const (
	// TxnReadOnly runs the batch as a read-only snapshot transaction:
	// consistent, never aborts, but puts and deletes are rejected.
	TxnReadOnly = 1 << 0
)

// ---------------------------------------------------------------------------
// Server-side encode: frames staged into a buf.Writer chunk chain.

// FramePatch is the reserved header of an in-progress frame; Finish patches
// the length once the payload is staged. The header span stays valid until
// the chain is detached and released (buf.Writer contract).
type FramePatch struct {
	hdr   []byte
	start int64
}

// BeginFrame reserves a frame header in w and returns the patch to finish
// it. The opcode is stored now; the length is patched by Finish.
//
//cicada:noalloc
func BeginFrame(w *buf.Writer, op Opcode) FramePatch {
	h := w.Frame(FrameHeaderLen)
	h[4] = byte(op)
	return FramePatch{hdr: h, start: w.Bytes()}
}

// Finish patches the reserved length field with the bytes staged since
// BeginFrame (plus the opcode byte).
//
//cicada:noalloc
func (p FramePatch) Finish(w *buf.Writer) {
	binary.LittleEndian.PutUint32(p.hdr[:4], uint32(w.Bytes()-p.start)+1)
}

// AppendResultCount stages the u16 statement-result count that opens a
// result frame's payload.
//
//cicada:noalloc
func AppendResultCount(w *buf.Writer, n int) {
	binary.LittleEndian.PutUint16(w.Frame(2), uint16(n))
}

// AppendResult stages one per-statement result: status, value length, and
// the value bytes (copied, so the engine-owned slice need not outlive the
// transaction).
//
//cicada:noalloc
func AppendResult(w *buf.Writer, status byte, val []byte) {
	h := w.Frame(ResultHeaderLen)
	h[0] = status
	binary.LittleEndian.PutUint32(h[1:5], uint32(len(val)))
	if len(val) > 0 {
		copy(w.Frame(len(val)), val)
	}
}

// EncodeEmpty stages a complete frame with no payload (ok acks).
//
//cicada:noalloc
func EncodeEmpty(w *buf.Writer, op Opcode) {
	h := w.Frame(FrameHeaderLen)
	binary.LittleEndian.PutUint32(h[:4], 1)
	h[4] = byte(op)
}

// EncodeErr stages a complete error frame.
//
//cicada:noalloc
func EncodeErr(w *buf.Writer, code ErrCode, msg string) {
	if len(msg) > MaxTableName {
		msg = msg[:MaxTableName]
	}
	p := BeginFrame(w, OpErr)
	b := w.Frame(4 + len(msg))
	binary.LittleEndian.PutUint16(b[0:2], uint16(code))
	binary.LittleEndian.PutUint16(b[2:4], uint16(len(msg)))
	copy(b[4:], msg)
	p.Finish(w)
}

// ---------------------------------------------------------------------------
// Client-side encode: append-style builders over plain byte slices.

// AppendFrame appends a complete frame (header + payload) to dst.
func AppendFrame(dst []byte, op Opcode, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+len(payload)))
	dst = append(dst, byte(op))
	return append(dst, payload...)
}

// AppendHello appends a hello payload (version + tenant name).
func AppendHello(dst []byte, tenant string) []byte {
	dst = append(dst, ProtoMajor, ProtoMinor)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(tenant)))
	return append(dst, tenant...)
}

// AppendTxnHeader appends a txn payload's fixed prefix.
func AppendTxnHeader(dst []byte, flags byte, nstmt int) []byte {
	dst = append(dst, flags)
	return binary.LittleEndian.AppendUint16(dst, uint16(nstmt))
}

// AppendGet appends a get statement.
func AppendGet(dst []byte, table string, key uint64) []byte {
	dst = appendStmtPrefix(dst, StGet, table, key)
	return dst
}

// AppendPut appends a put statement.
func AppendPut(dst []byte, table string, key uint64, val []byte) []byte {
	dst = appendStmtPrefix(dst, StPut, table, key)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(val)))
	return append(dst, val...)
}

// AppendDelete appends a delete statement.
func AppendDelete(dst []byte, table string, key uint64) []byte {
	return appendStmtPrefix(dst, StDelete, table, key)
}

func appendStmtPrefix(dst []byte, kind StmtKind, table string, key uint64) []byte {
	dst = append(dst, byte(kind), byte(len(table)))
	dst = append(dst, table...)
	return binary.LittleEndian.AppendUint64(dst, key)
}

// ---------------------------------------------------------------------------
// Decode. All decoders work in place over one frame's payload, never
// panic, and return errors satisfying errors.Is(err, ErrMalformed) on any
// structural violation.

// ReadFrame reads one frame from r: the opcode and a pooled chunk holding
// the payload (nil when the payload is empty; the caller must Release a
// non-nil chunk). maxFrame bounds the length field; an oversized frame
// returns ErrFrameTooLarge without consuming the payload, so the caller
// must treat it as connection-fatal. hdr is the caller's scratch for the
// frame header, at least FrameHeaderLen bytes: a local array would escape
// through io.ReadFull and cost an allocation per frame.
func ReadFrame(r io.Reader, pool *buf.Pool, maxFrame int, hdr []byte) (Opcode, *buf.Chunk, error) {
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 {
		return 0, nil, fmt.Errorf("zero-length frame: %w", ErrMalformed)
	}
	if int64(n) > int64(maxFrame) {
		return 0, nil, fmt.Errorf("frame length %d > %d: %w", n, maxFrame, ErrFrameTooLarge)
	}
	if _, err := io.ReadFull(r, hdr[4:5]); err != nil {
		return 0, nil, err
	}
	op := Opcode(hdr[4])
	if n == 1 {
		return op, nil, nil
	}
	c := pool.GetSized(int(n) - 1)
	b := c.Buf()[:n-1]
	if _, err := io.ReadFull(r, b); err != nil {
		c.Release()
		return 0, nil, err
	}
	c.SetLen(int(n) - 1)
	return op, c, nil
}

// payloadReader is a bounds-checked cursor over one frame payload.
type payloadReader struct {
	b   []byte
	off int
}

func (r *payloadReader) remain() int { return len(r.b) - r.off }

func (r *payloadReader) u8() (uint8, bool) {
	if r.remain() < 1 {
		return 0, false
	}
	v := r.b[r.off]
	r.off++
	return v, true
}

func (r *payloadReader) u16() (uint16, bool) {
	if r.remain() < 2 {
		return 0, false
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v, true
}

func (r *payloadReader) u32() (uint32, bool) {
	if r.remain() < 4 {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, true
}

func (r *payloadReader) u64() (uint64, bool) {
	if r.remain() < 8 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, true
}

func (r *payloadReader) bytes(n int) ([]byte, bool) {
	if n < 0 || r.remain() < n {
		return nil, false
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v, true
}

// Hello is a decoded hello payload. Tenant aliases the frame buffer.
type Hello struct {
	Major, Minor uint8
	Tenant       []byte
}

// DecodeHello parses a hello payload. Unknown trailing bytes are ignored
// (minor-version forward compatibility).
func DecodeHello(payload []byte) (Hello, error) {
	r := payloadReader{b: payload}
	var h Hello
	var ok bool
	if h.Major, ok = r.u8(); !ok {
		return h, fmt.Errorf("hello: truncated version: %w", ErrMalformed)
	}
	if h.Minor, ok = r.u8(); !ok {
		return h, fmt.Errorf("hello: truncated version: %w", ErrMalformed)
	}
	n, ok := r.u16()
	if !ok {
		return h, fmt.Errorf("hello: truncated tenant length: %w", ErrMalformed)
	}
	if h.Tenant, ok = r.bytes(int(n)); !ok || n == 0 {
		return h, fmt.Errorf("hello: tenant length %d exceeds payload: %w", n, ErrMalformed)
	}
	return h, nil
}

// DecodeTxn parses a txn payload, appending statements to dst (pass a
// reused slice to avoid allocation). Statements alias the payload.
func DecodeTxn(payload []byte, dst []Stmt) (flags byte, stmts []Stmt, err error) {
	r := payloadReader{b: payload}
	f, ok := r.u8()
	if !ok {
		return 0, dst, fmt.Errorf("txn: truncated flags: %w", ErrMalformed)
	}
	n, ok := r.u16()
	if !ok {
		return 0, dst, fmt.Errorf("txn: truncated statement count: %w", ErrMalformed)
	}
	if n == 0 || n > MaxStatements {
		return 0, dst, fmt.Errorf("txn: statement count %d out of range [1,%d]: %w", n, MaxStatements, ErrMalformed)
	}
	for i := 0; i < int(n); i++ {
		var s Stmt
		k, ok := r.u8()
		if !ok {
			return 0, dst, fmt.Errorf("txn: truncated statement %d: %w", i, ErrMalformed)
		}
		s.Kind = StmtKind(k)
		switch s.Kind {
		case StGet, StPut, StDelete:
		default:
			return 0, dst, fmt.Errorf("txn: unknown statement kind %d: %w", k, ErrMalformed)
		}
		tlen, ok := r.u8()
		if !ok || tlen == 0 {
			return 0, dst, fmt.Errorf("txn: bad table length in statement %d: %w", i, ErrMalformed)
		}
		if s.Table, ok = r.bytes(int(tlen)); !ok {
			return 0, dst, fmt.Errorf("txn: table name exceeds payload in statement %d: %w", i, ErrMalformed)
		}
		if s.Key, ok = r.u64(); !ok {
			return 0, dst, fmt.Errorf("txn: truncated key in statement %d: %w", i, ErrMalformed)
		}
		if s.Kind == StPut {
			vlen, ok := r.u32()
			if !ok {
				return 0, dst, fmt.Errorf("txn: truncated value length in statement %d: %w", i, ErrMalformed)
			}
			if s.Value, ok = r.bytes(int(vlen)); !ok {
				return 0, dst, fmt.Errorf("txn: value length %d exceeds payload in statement %d: %w", vlen, i, ErrMalformed)
			}
		}
		dst = append(dst, s)
	}
	if r.remain() != 0 {
		return 0, dst, fmt.Errorf("txn: %d trailing bytes: %w", r.remain(), ErrMalformed)
	}
	return f, dst, nil
}

// Result is one decoded per-statement result. Value aliases the response
// buffer.
type Result struct {
	Status byte
	Value  []byte
}

// DecodeResults parses a result payload, appending to dst.
func DecodeResults(payload []byte, dst []Result) ([]Result, error) {
	r := payloadReader{b: payload}
	n, ok := r.u16()
	if !ok {
		return dst, fmt.Errorf("result: truncated count: %w", ErrMalformed)
	}
	for i := 0; i < int(n); i++ {
		status, ok := r.u8()
		if !ok {
			return dst, fmt.Errorf("result: truncated status %d: %w", i, ErrMalformed)
		}
		vlen, ok := r.u32()
		if !ok {
			return dst, fmt.Errorf("result: truncated value length %d: %w", i, ErrMalformed)
		}
		val, ok := r.bytes(int(vlen))
		if !ok {
			return dst, fmt.Errorf("result: value length %d exceeds payload: %w", vlen, ErrMalformed)
		}
		dst = append(dst, Result{Status: status, Value: val})
	}
	if r.remain() != 0 {
		return dst, fmt.Errorf("result: %d trailing bytes: %w", r.remain(), ErrMalformed)
	}
	return dst, nil
}

// DecodeErr parses an err payload.
func DecodeErr(payload []byte) (ErrCode, string, error) {
	r := payloadReader{b: payload}
	code, ok := r.u16()
	if !ok {
		return 0, "", fmt.Errorf("err: truncated code: %w", ErrMalformed)
	}
	mlen, ok := r.u16()
	if !ok {
		return 0, "", fmt.Errorf("err: truncated message length: %w", ErrMalformed)
	}
	msg, ok := r.bytes(int(mlen))
	if !ok {
		return 0, "", fmt.Errorf("err: message length %d exceeds payload: %w", mlen, ErrMalformed)
	}
	return ErrCode(code), string(msg), nil
}

// HelloOK is the decoded hello response: the negotiated version, the
// server's frame bound, and the tenant's table namespace.
type HelloOK struct {
	Major, Minor uint8
	MaxFrame     uint32
	Tables       []string
}

// AppendHelloOK appends a hello-ok payload (server side; cold path, so the
// plain-slice builder is fine here).
func AppendHelloOK(dst []byte, maxFrame uint32, tables []string) []byte {
	dst = append(dst, ProtoMajor, ProtoMinor)
	dst = binary.LittleEndian.AppendUint32(dst, maxFrame)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(tables)))
	for _, t := range tables {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(t)))
		dst = append(dst, t...)
	}
	return dst
}

// DecodeHelloOK parses a hello response payload.
func DecodeHelloOK(payload []byte) (HelloOK, error) {
	r := payloadReader{b: payload}
	var h HelloOK
	var ok bool
	if h.Major, ok = r.u8(); !ok {
		return h, fmt.Errorf("hello-ok: truncated version: %w", ErrMalformed)
	}
	if h.Minor, ok = r.u8(); !ok {
		return h, fmt.Errorf("hello-ok: truncated version: %w", ErrMalformed)
	}
	if h.MaxFrame, ok = r.u32(); !ok {
		return h, fmt.Errorf("hello-ok: truncated frame bound: %w", ErrMalformed)
	}
	n, ok := r.u16()
	if !ok {
		return h, fmt.Errorf("hello-ok: truncated table count: %w", ErrMalformed)
	}
	for i := 0; i < int(n); i++ {
		tlen, ok := r.u16()
		if !ok {
			return h, fmt.Errorf("hello-ok: truncated table length %d: %w", i, ErrMalformed)
		}
		name, ok := r.bytes(int(tlen))
		if !ok {
			return h, fmt.Errorf("hello-ok: table name exceeds payload: %w", ErrMalformed)
		}
		h.Tables = append(h.Tables, string(name))
	}
	return h, nil
}

// Stats is the decoded stats response: engine-wide transaction outcomes
// plus the session tenant's live admission state.
type Stats struct {
	Commits        uint64
	Aborts         uint64
	TenantInflight uint32
	TenantSessions uint32
}

// AppendStats appends a stats payload (server side).
func AppendStats(dst []byte, s Stats) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, s.Commits)
	dst = binary.LittleEndian.AppendUint64(dst, s.Aborts)
	dst = binary.LittleEndian.AppendUint32(dst, s.TenantInflight)
	return binary.LittleEndian.AppendUint32(dst, s.TenantSessions)
}

// DecodeStats parses a stats response payload.
func DecodeStats(payload []byte) (Stats, error) {
	r := payloadReader{b: payload}
	var s Stats
	var ok bool
	if s.Commits, ok = r.u64(); !ok {
		return s, fmt.Errorf("stats: truncated commits: %w", ErrMalformed)
	}
	if s.Aborts, ok = r.u64(); !ok {
		return s, fmt.Errorf("stats: truncated aborts: %w", ErrMalformed)
	}
	if s.TenantInflight, ok = r.u32(); !ok {
		return s, fmt.Errorf("stats: truncated inflight: %w", ErrMalformed)
	}
	if s.TenantSessions, ok = r.u32(); !ok {
		return s, fmt.Errorf("stats: truncated sessions: %w", ErrMalformed)
	}
	return s, nil
}

// OpcodeNames returns the opcode catalog (name by opcode); exposed for the
// docs-drift tooling and tests.
func OpcodeNames() map[Opcode]string { return opcodeNames }

// ErrorCodeNames returns the error-code catalog.
func ErrorCodeNames() map[ErrCode]string { return errorCodeNames }

// StmtKindNames returns the statement catalog.
func StmtKindNames() map[StmtKind]string { return stmtKindNames }
