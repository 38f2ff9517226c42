package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"cicada/internal/buf"
)

// FuzzDecode feeds arbitrary bytes through the full server-side decode
// path: frame splitting, then the per-opcode payload decoder. The
// invariants are the ISSUE's acceptance bar for the protocol layer:
// malformed input must surface as a typed error (ErrMalformed /
// ErrFrameTooLarge / io error), never a panic, and must never leak a
// pooled chunk.
func FuzzDecode(f *testing.F) {
	f.Add(AppendFrame(nil, OpHello, AppendHello(nil, "acme")))
	f.Add(AppendFrame(nil, OpPing, nil))
	txn := AppendTxnHeader(nil, 0, 2)
	txn = AppendGet(txn, "accounts", 1)
	txn = AppendPut(txn, "accounts", 2, []byte("v"))
	f.Add(AppendFrame(nil, OpTxn, txn))
	f.Add(AppendFrame(nil, OpErr, []byte{8, 0, 1, 0, 'q'}))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		pool := buf.NewPool(512, 8)
		r := bytes.NewReader(data)
		for {
			op, c, err := ReadFrame(r, pool, 1<<16, make([]byte, FrameHeaderLen))
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF &&
					!errors.Is(err, ErrMalformed) && !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("ReadFrame: untyped error %v", err)
				}
				break
			}
			var payload []byte
			if c != nil {
				payload = c.Bytes()
			}
			// Run every decoder over the payload regardless of opcode:
			// a server must survive any opcode/payload combination.
			checkTyped(t, func() error { _, err := DecodeHello(payload); return err })
			checkTyped(t, func() error { _, _, err := DecodeTxn(payload, nil); return err })
			checkTyped(t, func() error { _, err := DecodeResults(payload, nil); return err })
			checkTyped(t, func() error { _, _, err := DecodeErr(payload); return err })
			checkTyped(t, func() error { _, err := DecodeHelloOK(payload); return err })
			checkTyped(t, func() error { _, err := DecodeStats(payload); return err })
			_ = op.String()
			if c != nil {
				c.Release()
			}
		}
		if pool.Live() != 0 {
			t.Fatalf("leaked %d chunks", pool.Live())
		}
	})
}

func checkTyped(t *testing.T, fn func() error) {
	t.Helper()
	if err := fn(); err != nil && !errors.Is(err, ErrMalformed) {
		t.Fatalf("decoder returned untyped error: %v", err)
	}
}

// FuzzTxnRoundTrip checks that any txn payload the decoder accepts
// re-encodes to an equivalent statement list (encode/decode agree on the
// grammar).
func FuzzTxnRoundTrip(f *testing.F) {
	seed := AppendTxnHeader(nil, 1, 2)
	seed = AppendGet(seed, "t", 5)
	seed = AppendPut(seed, "u", 6, []byte("val"))
	f.Add(seed)

	f.Fuzz(func(t *testing.T, payload []byte) {
		flags, stmts, err := DecodeTxn(payload, nil)
		if err != nil {
			return
		}
		re := AppendTxnHeader(nil, flags, len(stmts))
		for _, s := range stmts {
			switch s.Kind {
			case StGet:
				re = AppendGet(re, string(s.Table), s.Key)
			case StPut:
				re = AppendPut(re, string(s.Table), s.Key, s.Value)
			case StDelete:
				re = AppendDelete(re, string(s.Table), s.Key)
			}
		}
		if !bytes.Equal(re, payload) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", payload, re)
		}
	})
}
