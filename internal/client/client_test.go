package client

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"cicada/internal/server/wire"
)

// fakeServer connects a Client to a goroutine that answers every request
// frame with whatever respond returns (raw bytes, so tests can send frames
// no real server would). The requests it saw are on reqs.
func fakeServer(t *testing.T, respond func(op wire.Opcode, payload []byte) []byte) (c *Client, reqs <-chan []byte) {
	t.Helper()
	cli, srv := net.Pipe()
	seen := make(chan []byte, 16)
	go func() {
		defer srv.Close()
		var hdr [wire.FrameHeaderLen]byte
		for {
			if _, err := io.ReadFull(srv, hdr[:]); err != nil {
				return
			}
			payload := make([]byte, binary.LittleEndian.Uint32(hdr[:4])-1)
			if _, err := io.ReadFull(srv, payload); err != nil {
				return
			}
			seen <- payload
			if _, err := srv.Write(respond(wire.Opcode(hdr[4]), payload)); err != nil {
				return
			}
		}
	}()
	c = newClient(cli)
	t.Cleanup(func() { c.Close() })
	return c, seen
}

// resultFrame is a result frame answering n statements with value val each.
func resultFrame(n int, val []byte) []byte {
	p := binary.LittleEndian.AppendUint16(nil, uint16(n))
	for i := 0; i < n; i++ {
		p = append(p, wire.StatusOK)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(val)))
		p = append(p, val...)
	}
	return wire.AppendFrame(nil, wire.OpResult, p)
}

func errFrame(code wire.ErrCode, msg string) []byte {
	p := binary.LittleEndian.AppendUint16(nil, uint16(code))
	p = binary.LittleEndian.AppendUint16(p, uint16(len(msg)))
	return wire.AppendFrame(nil, wire.OpErr, append(p, msg...))
}

// stmtCount is the statement count in a txn request payload.
func stmtCount(payload []byte) int { return int(binary.LittleEndian.Uint16(payload[1:3])) }

func TestTxnRecycling(t *testing.T) {
	c, reqs := fakeServer(t, func(_ wire.Opcode, payload []byte) []byte {
		return resultFrame(stmtCount(payload), []byte("value"))
	})

	first := c.Txn().Put("t", 1, []byte("a")).Get("t", 1)
	// A second transaction started before the first executes is its own
	// object: building it must not disturb the first.
	second := c.ReadOnlyTxn().Get("t", 2)
	if first == second {
		t.Fatal("two outstanding transactions share one Txn")
	}

	res, err := first.Exec()
	if err != nil || len(res) != 2 {
		t.Fatalf("first: %v, %d results", err, len(res))
	}
	want := wire.AppendGet(wire.AppendPut(wire.AppendTxnHeader(nil, 0, 2), "t", 1, []byte("a")), "t", 1)
	if got := <-reqs; !bytes.Equal(got, want) {
		t.Fatalf("first request = %x, want %x", got, want)
	}
	// Result values stay valid until the next request, even while the next
	// transaction is being built on the recycled Txn.
	third := c.Txn().Put("t", 3, []byte("ccc"))
	if third != first {
		t.Fatal("executed Txn was not recycled")
	}
	if string(res[1].Value) != "value" {
		t.Fatalf("result value = %q before the next request", res[1].Value)
	}

	if _, err := second.Exec(); err != nil {
		t.Fatalf("second: %v", err)
	}
	want = wire.AppendGet(wire.AppendTxnHeader(nil, wire.TxnReadOnly, 1), "t", 2)
	if got := <-reqs; !bytes.Equal(got, want) {
		t.Fatalf("second request = %x, want %x", got, want)
	}
	if _, err := third.Exec(); err != nil {
		t.Fatalf("third: %v", err)
	}
	want = wire.AppendPut(wire.AppendTxnHeader(nil, 0, 1), "t", 3, []byte("ccc"))
	if got := <-reqs; !bytes.Equal(got, want) {
		t.Fatalf("recycled Txn sent %x, want %x (stale statements?)", got, want)
	}
}

// TestTxnDiscard: a transaction that is built and then abandoned hands the
// recycled Txn back, and none of its statements leak into the next one.
func TestTxnDiscard(t *testing.T) {
	c, reqs := fakeServer(t, func(_ wire.Opcode, payload []byte) []byte {
		return resultFrame(stmtCount(payload), nil)
	})
	abandoned := c.Txn().Put("t", 1, []byte("never sent"))
	heap := c.Txn() // outstanding alongside it: a heap Txn, whose Discard is a no-op
	heap.Discard()
	if next := c.Txn(); next == abandoned {
		t.Fatal("recycled Txn handed out while still outstanding")
	}
	abandoned.Discard()
	next := c.Txn().Get("t", 2)
	if next != abandoned {
		t.Fatal("discarded Txn was not recycled")
	}
	if _, err := next.Exec(); err != nil {
		t.Fatalf("Exec: %v", err)
	}
	want := wire.AppendGet(wire.AppendTxnHeader(nil, 0, 1), "t", 2)
	if got := <-reqs; !bytes.Equal(got, want) {
		t.Fatalf("request = %x, want %x (abandoned statements sent?)", got, want)
	}
}

func TestServerErrorDecoding(t *testing.T) {
	c, _ := fakeServer(t, func(op wire.Opcode, _ []byte) []byte {
		if op == wire.OpPing {
			return errFrame(wire.ErrCodeOverload, "busy")
		}
		return errFrame(wire.ErrCodeAbortValidation, "retry budget exhausted")
	})
	_, err := c.Txn().Get("t", 1).Exec()
	var se *ServerError
	if !errors.As(err, &se) || se.Code != wire.ErrCodeAbortValidation || se.Msg != "retry budget exhausted" {
		t.Fatalf("txn err = %#v", err)
	}
	if !IsCode(err, wire.ErrCodeAbortValidation) || IsCode(err, wire.ErrCodeOverload) {
		t.Fatalf("IsCode misclassifies %v", err)
	}
	if !strings.Contains(err.Error(), "abort_validation") {
		t.Fatalf("message %q does not name the code", err)
	}
	if err := c.Ping(); !IsCode(err, wire.ErrCodeOverload) {
		t.Fatalf("ping err = %v", err)
	}
}

func TestBadResponseLengthRejected(t *testing.T) {
	for name, length := range map[string]uint32{"zero": 0, "oversized": wire.DefaultMaxFrame*4 + 1} {
		t.Run(name, func(t *testing.T) {
			c, _ := fakeServer(t, func(wire.Opcode, []byte) []byte {
				return append(binary.LittleEndian.AppendUint32(nil, length), byte(wire.OpResult))
			})
			// The client must reject the header without waiting for (or
			// allocating) a payload of the advertised length.
			_, err := c.Txn().Get("t", 1).Exec()
			if err == nil || !strings.Contains(err.Error(), "bad response frame length") {
				t.Fatalf("err = %v", err)
			}
		})
	}
}

func TestExecEmptyTxn(t *testing.T) {
	c, reqs := fakeServer(t, func(wire.Opcode, []byte) []byte {
		t.Error("empty transaction reached the wire")
		return nil
	})
	empty := c.Txn()
	if _, err := empty.Exec(); err == nil || !strings.Contains(err.Error(), "empty transaction") {
		t.Fatalf("err = %v", err)
	}
	if len(reqs) != 0 {
		t.Fatal("empty transaction reached the wire")
	}
	if c.Txn() != empty {
		t.Fatal("a Txn that failed in Exec was not recycled")
	}
}

// TestClientExecAllocs pins the client's share of a round trip — build the
// transaction, frame it, read and decode the response — at zero
// allocations. The peer answers from preallocated buffers, so the count is
// the client's alone.
func TestClientExecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budgets enforced in non-race builds")
	}
	val := make([]byte, 64)
	build := func(tx *Txn) *Txn {
		return tx.Put("kv", 1, val).Get("kv", 2).Put("kv", 3, val).Get("kv", 4)
	}
	reqLen := wire.FrameHeaderLen + len(build(&Txn{}).body) + 3
	resp := resultFrame(4, val)

	cli, srv := net.Pipe()
	defer cli.Close()
	go func() {
		defer srv.Close()
		req := make([]byte, reqLen)
		for {
			if _, err := io.ReadFull(srv, req); err != nil {
				return
			}
			if _, err := srv.Write(resp); err != nil {
				return
			}
		}
	}()
	c := newClient(cli)
	roundTrip := func() {
		res, err := build(c.Txn()).Exec()
		if err != nil || len(res) != 4 {
			t.Fatalf("exec: %v (%d results)", err, len(res))
		}
	}
	roundTrip() // grow the body, request and response buffers
	if got := testing.AllocsPerRun(1000, roundTrip); got != 0 {
		t.Fatalf("client round trip allocates %.1f/txn, want 0", got)
	}
}
