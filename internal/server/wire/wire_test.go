package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"cicada/internal/buf"
)

// drain flattens a detached chunk chain into one byte slice and releases
// every chunk.
func drain(head *buf.Chunk) []byte {
	var out []byte
	for c := head; c != nil; {
		out = append(out, c.Bytes()...)
		next := c.Next()
		c.Release()
		c = next
	}
	return out
}

// splitFrames parses a raw byte stream into (opcode, payload) frames using
// ReadFrame, asserting the stream terminates exactly at EOF.
func splitFrames(t *testing.T, raw []byte, pool *buf.Pool) []struct {
	op      Opcode
	payload []byte
} {
	t.Helper()
	var frames []struct {
		op      Opcode
		payload []byte
	}
	r := bytes.NewReader(raw)
	for {
		op, c, err := ReadFrame(r, pool, DefaultMaxFrame, make([]byte, FrameHeaderLen))
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		var payload []byte
		if c != nil {
			payload = append(payload, c.Bytes()...)
			c.Release()
		}
		frames = append(frames, struct {
			op      Opcode
			payload []byte
		}{op, payload})
	}
}

func TestHelloRoundTrip(t *testing.T) {
	raw := AppendFrame(nil, OpHello, AppendHello(nil, "acme"))
	pool := buf.NewPool(256, 4)
	frames := splitFrames(t, raw, pool)
	if len(frames) != 1 || frames[0].op != OpHello {
		t.Fatalf("frames = %+v", frames)
	}
	h, err := DecodeHello(frames[0].payload)
	if err != nil {
		t.Fatalf("DecodeHello: %v", err)
	}
	if h.Major != ProtoMajor || h.Minor != ProtoMinor || string(h.Tenant) != "acme" {
		t.Fatalf("hello = %+v", h)
	}
	if pool.Live() != 0 {
		t.Fatalf("leaked %d chunks", pool.Live())
	}
}

func TestHelloIgnoresTrailingBytes(t *testing.T) {
	payload := AppendHello(nil, "acme")
	payload = append(payload, 0xde, 0xad) // future minor-version extension
	h, err := DecodeHello(payload)
	if err != nil {
		t.Fatalf("DecodeHello with trailing bytes: %v", err)
	}
	if string(h.Tenant) != "acme" {
		t.Fatalf("tenant = %q", h.Tenant)
	}
}

func TestTxnRoundTrip(t *testing.T) {
	payload := AppendTxnHeader(nil, TxnReadOnly, 3)
	payload = AppendGet(payload, "accounts", 42)
	payload = AppendPut(payload, "audit", 7, []byte("hello"))
	payload = AppendDelete(payload, "accounts", 99)

	flags, stmts, err := DecodeTxn(payload, nil)
	if err != nil {
		t.Fatalf("DecodeTxn: %v", err)
	}
	if flags != TxnReadOnly {
		t.Fatalf("flags = %d", flags)
	}
	want := []Stmt{
		{Kind: StGet, Table: []byte("accounts"), Key: 42},
		{Kind: StPut, Table: []byte("audit"), Key: 7, Value: []byte("hello")},
		{Kind: StDelete, Table: []byte("accounts"), Key: 99},
	}
	if len(stmts) != len(want) {
		t.Fatalf("got %d stmts", len(stmts))
	}
	for i, s := range stmts {
		w := want[i]
		if s.Kind != w.Kind || !bytes.Equal(s.Table, w.Table) || s.Key != w.Key || !bytes.Equal(s.Value, w.Value) {
			t.Fatalf("stmt %d = %+v, want %+v", i, s, w)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	pool := buf.NewPool(64, 4) // small chunks: force the frame to span chunks
	var w buf.Writer
	w.Init(pool)

	big := bytes.Repeat([]byte("v"), 200)
	p := BeginFrame(&w, OpResult)
	AppendResultCount(&w, 3)
	AppendResult(&w, StatusOK, []byte("small"))
	AppendResult(&w, StatusNotFound, nil)
	AppendResult(&w, StatusOK, big)
	p.Finish(&w)

	head, _, _ := w.Detach()
	raw := drain(head)

	frames := splitFrames(t, raw, buf.NewPool(1024, 4))
	if len(frames) != 1 || frames[0].op != OpResult {
		t.Fatalf("frames = %+v", frames)
	}
	res, err := DecodeResults(frames[0].payload, nil)
	if err != nil {
		t.Fatalf("DecodeResults: %v", err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Status != StatusOK || string(res[0].Value) != "small" {
		t.Fatalf("res[0] = %+v", res[0])
	}
	if res[1].Status != StatusNotFound || len(res[1].Value) != 0 {
		t.Fatalf("res[1] = %+v", res[1])
	}
	if res[2].Status != StatusOK || !bytes.Equal(res[2].Value, big) {
		t.Fatalf("res[2] mismatch")
	}
	if pool.Live() != 0 {
		t.Fatalf("leaked %d chunks", pool.Live())
	}
}

func TestErrRoundTrip(t *testing.T) {
	pool := buf.NewPool(256, 4)
	var w buf.Writer
	w.Init(pool)
	EncodeErr(&w, ErrCodeQuota, "tenant quota exhausted")
	head, _, _ := w.Detach()
	raw := drain(head)

	frames := splitFrames(t, raw, pool)
	if len(frames) != 1 || frames[0].op != OpErr {
		t.Fatalf("frames = %+v", frames)
	}
	code, msg, err := DecodeErr(frames[0].payload)
	if err != nil {
		t.Fatalf("DecodeErr: %v", err)
	}
	if code != ErrCodeQuota || msg != "tenant quota exhausted" {
		t.Fatalf("code=%v msg=%q", code, msg)
	}
	if pool.Live() != 0 {
		t.Fatalf("leaked %d chunks", pool.Live())
	}
}

func TestEmptyFrameRoundTrip(t *testing.T) {
	pool := buf.NewPool(256, 4)
	var w buf.Writer
	w.Init(pool)
	EncodeEmpty(&w, OpOK)
	head, _, _ := w.Detach()
	raw := drain(head)

	frames := splitFrames(t, raw, pool)
	if len(frames) != 1 || frames[0].op != OpOK || len(frames[0].payload) != 0 {
		t.Fatalf("frames = %+v", frames)
	}
}

func TestHelloOKRoundTrip(t *testing.T) {
	payload := AppendHelloOK(nil, DefaultMaxFrame, []string{"accounts", "audit"})
	h, err := DecodeHelloOK(payload)
	if err != nil {
		t.Fatalf("DecodeHelloOK: %v", err)
	}
	if h.Major != ProtoMajor || h.MaxFrame != DefaultMaxFrame {
		t.Fatalf("hello-ok = %+v", h)
	}
	if len(h.Tables) != 2 || h.Tables[0] != "accounts" || h.Tables[1] != "audit" {
		t.Fatalf("tables = %v", h.Tables)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	in := Stats{Commits: 123456, Aborts: 7, TenantInflight: 3, TenantSessions: 9}
	out, err := DecodeStats(AppendStats(nil, in))
	if err != nil {
		t.Fatalf("DecodeStats: %v", err)
	}
	if out != in {
		t.Fatalf("stats = %+v, want %+v", out, in)
	}
}

func TestReadFrameLimits(t *testing.T) {
	pool := buf.NewPool(256, 4)

	// Zero-length frame: malformed.
	_, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), pool, DefaultMaxFrame, make([]byte, FrameHeaderLen))
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("zero-length err = %v", err)
	}

	// Over-limit length: frame_too_large.
	raw := AppendFrame(nil, OpPing, bytes.Repeat([]byte{0}, 64))
	_, _, err = ReadFrame(bytes.NewReader(raw), pool, 16, make([]byte, FrameHeaderLen))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize err = %v", err)
	}

	// Truncated payload: io error, chunk released.
	raw = AppendFrame(nil, OpTxn, bytes.Repeat([]byte{1}, 100))
	_, _, err = ReadFrame(bytes.NewReader(raw[:20]), pool, DefaultMaxFrame, make([]byte, FrameHeaderLen))
	if err == nil {
		t.Fatal("truncated payload: want error")
	}
	if pool.Live() != 0 {
		t.Fatalf("leaked %d chunks after truncated read", pool.Live())
	}
}

func TestDecodeTxnMalformed(t *testing.T) {
	good := AppendTxnHeader(nil, 0, 1)
	good = AppendPut(good, "t", 1, []byte("v"))

	cases := map[string][]byte{
		"empty":             nil,
		"flags only":        {0},
		"zero statements":   AppendTxnHeader(nil, 0, 0),
		"count over max":    AppendTxnHeader(nil, 0, MaxStatements+1),
		"count over actual": AppendTxnHeader(nil, 0, 2),
		"bad kind":          append(AppendTxnHeader(nil, 0, 1), 99, 1, 't', 0, 0, 0, 0, 0, 0, 0, 0),
		"zero table len":    append(AppendTxnHeader(nil, 0, 1), byte(StGet), 0),
		"table past end":    append(AppendTxnHeader(nil, 0, 1), byte(StGet), 200, 't'),
		"truncated key":     append(AppendTxnHeader(nil, 0, 1), byte(StGet), 1, 't', 1, 2),
		"value past end":    good[:len(good)-1],
		"trailing bytes":    append(append([]byte{}, good...), 0xff),
	}
	for name, payload := range cases {
		if _, _, err := DecodeTxn(payload, nil); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}

	if _, _, err := DecodeTxn(good, nil); err != nil {
		t.Fatalf("control case failed: %v", err)
	}
}

func TestAbortCode(t *testing.T) {
	if AbortCode(0) != ErrCodeAbortRTSEarly {
		t.Fatalf("AbortCode(0) = %v", AbortCode(0))
	}
	if AbortCode(7) != ErrCodeAbortUser {
		t.Fatalf("AbortCode(7) = %v", AbortCode(7))
	}
	if AbortCode(8) != ErrCodeInternal {
		t.Fatalf("AbortCode(8) = %v", AbortCode(8))
	}
}

func TestCatalogNames(t *testing.T) {
	if OpTxn.String() != "txn" || Opcode(0x55).String() == "" {
		t.Fatal("opcode names")
	}
	if ErrCodeDraining.String() != "draining" || ErrCode(999).String() == "" {
		t.Fatal("error code names")
	}
	if StPut.String() != "put" || StmtKind(9).String() == "" {
		t.Fatal("stmt kind names")
	}
	// The abort block must cover all 8 reasons contiguously.
	for r := uint8(0); r < 8; r++ {
		name := AbortCode(r).String()
		if len(name) < len("abort_") || name[:6] != "abort_" {
			t.Fatalf("AbortCode(%d) = %q", r, name)
		}
	}
}

// TestEncodeRespAllocs pins the server-side response encode at zero
// allocations per frame on pooled chunks (ISSUE acceptance criterion).
func TestEncodeRespAllocs(t *testing.T) {
	pool := buf.NewPool(4096, 16)
	var w buf.Writer
	w.Init(pool)
	val := bytes.Repeat([]byte("x"), 64)

	// Warm the pool so steady state recycles chunks.
	for i := 0; i < 4; i++ {
		p := BeginFrame(&w, OpResult)
		AppendResultCount(&w, 2)
		AppendResult(&w, StatusOK, val)
		AppendResult(&w, StatusNotFound, nil)
		p.Finish(&w)
		head, _, _ := w.Detach()
		for c := head; c != nil; {
			n := c.Next()
			c.Release()
			c = n
		}
	}

	allocs := testing.AllocsPerRun(200, func() {
		p := BeginFrame(&w, OpResult)
		AppendResultCount(&w, 2)
		AppendResult(&w, StatusOK, val)
		AppendResult(&w, StatusNotFound, nil)
		p.Finish(&w)
		EncodeErr(&w, ErrCodeQuota, "q")
		EncodeEmpty(&w, OpOK)
		head, _, _ := w.Detach()
		for c := head; c != nil; {
			n := c.Next()
			c.Release()
			c = n
		}
	})
	if allocs != 0 {
		t.Fatalf("response encode allocates %v times per frame, want 0", allocs)
	}
}
