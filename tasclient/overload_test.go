package tasclient

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// scriptedServer accepts connections and serves a scripted protocol:
// HELLO answers version v, and each ACQUIRE is passed to handle, which
// returns the response to send. Every other op answers plain OK. Each
// received ACQUIRE's WaitMillis is appended to waits (single connection
// at a time, so no locking); accepts counts connections.
type scriptedServer struct {
	addr    string
	waits   []uint32
	accepts atomic.Int32
}

func newScriptedServer(t *testing.T, v uint32, handle func(n int, req wire.Request) wire.Response) *scriptedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	s := &scriptedServer{addr: ln.Addr().String()}
	go func() {
		acquires := 0
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			s.accepts.Add(1)
			for {
				req, err := wire.ReadRequest(nc, 0)
				if err != nil {
					nc.Close()
					break
				}
				resp := wire.Response{Status: wire.StatusOK, ID: req.ID}
				switch req.Op {
				case wire.OpHello:
					resp.Payload = wire.HelloPayload(v)
				case wire.OpAcquire, wire.OpTryAcquire:
					s.waits = append(s.waits, req.WaitMillis)
					resp = handle(acquires, req)
					resp.ID = req.ID
					acquires++
				}
				nc.Write(wire.AppendResponse(nil, resp))
			}
		}
	}()
	return s
}

func grant(tok uint64) func(int, wire.Request) wire.Response {
	return func(int, wire.Request) wire.Response {
		return wire.Response{Status: wire.StatusOK, Payload: wire.TokenPayload(tok)}
	}
}

func shedThenGrant(sheds int, retryAfterMillis uint32, tok uint64) func(int, wire.Request) wire.Response {
	return func(n int, _ wire.Request) wire.Response {
		if n < sheds {
			return wire.Response{Status: wire.StatusBusy, Payload: wire.BusyPayload(retryAfterMillis)}
		}
		return wire.Response{Status: wire.StatusOK, Payload: wire.TokenPayload(tok)}
	}
}

// TestAcquireBusyTyped: a v3 BUSY answer to ACQUIRE surfaces as ErrBusy
// with the server's retry-after recovered via errors.As — and the
// refusal is per-operation: the same connection serves the next call.
func TestAcquireBusyTyped(t *testing.T) {
	s := newScriptedServer(t, 3, shedThenGrant(1, 40, 7))
	c, err := DialContext(context.Background(), s.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Acquire(context.Background(), "L", 0)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("shed Acquire = %v, want ErrBusy", err)
	}
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("shed Acquire error %T does not unwrap to *BusyError", err)
	}
	if busy.RetryAfter != 40*time.Millisecond || busy.Name != "L" {
		t.Fatalf("BusyError = %+v, want RetryAfter 40ms for %q", busy, "L")
	}
	if !strings.Contains(busy.Error(), "retry after 40ms") {
		t.Fatalf("BusyError text %q lacks the retry-after hint", busy.Error())
	}
	// The connection must survive the shed.
	tok, err := c.Acquire(context.Background(), "L", 0)
	if err != nil || tok != 7 {
		t.Fatalf("post-shed Acquire = (%d, %v), want (7, nil)", tok, err)
	}
}

// TestTryAcquireBusyStaysFalse: BUSY on a TRYACQUIRE probe keeps its
// historical meaning — a plain (held=false, err=nil) answer, not
// ErrBusy. Only the blocking ACQUIRE treats a shed as an error.
func TestTryAcquireBusyStaysFalse(t *testing.T) {
	s := newScriptedServer(t, 3, func(int, wire.Request) wire.Response {
		return wire.Response{Status: wire.StatusBusy, Payload: wire.BusyPayload(25)}
	})
	c, err := DialContext(context.Background(), s.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tok, held, err := c.TryAcquire(context.Background(), "L", 0)
	if err != nil || held || tok != 0 {
		t.Fatalf("busy TryAcquire = (%d, %v, %v), want (0, false, nil)", tok, held, err)
	}
	// The retry-after still lands in the raw Result for Do() callers.
	res, err := c.Do(context.Background(), []Op{{Code: OpTryAcquire, Name: "L"}})
	if err != nil || !res[0].Busy || res[0].RetryAfter != 25*time.Millisecond {
		t.Fatalf("busy TRYACQUIRE Result = (%+v, %v), want Busy with 25ms RetryAfter", res[0], err)
	}
}

// TestAcquireRetryHonorsRetryAfter: two sheds carrying a 30ms
// suggestion pace the retries — the grant cannot land before 2×30ms of
// server-suggested waiting has elapsed.
func TestAcquireRetryHonorsRetryAfter(t *testing.T) {
	s := newScriptedServer(t, 3, shedThenGrant(2, 30, 9))
	c, err := DialContext(context.Background(), s.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	tok, err := c.AcquireRetry(context.Background(), "L", 0)
	if err != nil || tok != 9 {
		t.Fatalf("AcquireRetry = (%d, %v), want (9, nil)", tok, err)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("grant after %v, want ≥ 60ms (two honored 30ms retry-afters)", elapsed)
	}
	if len(s.waits) != 3 {
		t.Fatalf("server saw %d ACQUIREs, want 3", len(s.waits))
	}
}

// TestAcquireRetryBackoffWithoutSuggestion: sheds without a retry-after
// payload fall back to the seeded exponential backoff.
func TestAcquireRetryBackoffWithoutSuggestion(t *testing.T) {
	s := newScriptedServer(t, 3, shedThenGrant(2, 0, 5))
	c, err := DialContext(context.Background(), s.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetBackoffSeed(1)
	start := time.Now()
	tok, err := c.AcquireRetry(context.Background(), "L", 0)
	if err != nil || tok != 5 {
		t.Fatalf("AcquireRetry = (%d, %v), want (5, nil)", tok, err)
	}
	// Backoff draws are in [base/2, base] then [base, 2·base]: at least
	// 2.5ms + 5ms must have passed.
	if elapsed := time.Since(start); elapsed < 7*time.Millisecond {
		t.Fatalf("grant after %v, want ≥ 7.5ms of backoff", elapsed)
	}
}

// TestAcquireRetryStopsOnContext: a context cancelled between retries
// ends the loop with the context's error, not a hang.
func TestAcquireRetryStopsOnContext(t *testing.T) {
	s := newScriptedServer(t, 3, shedThenGrant(1<<30, 50, 0))
	c, err := DialContext(context.Background(), s.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	_, err = c.AcquireRetry(ctx, "L", 0)
	if err == nil || errors.Is(err, ErrBusy) {
		t.Fatalf("AcquireRetry under expiring ctx = %v, want a context error", err)
	}
}

// TestDeadlinePropagation: the context's remaining time rides along as
// the ACQUIRE's WaitMillis, and an explicit Op.Wait takes precedence.
func TestDeadlinePropagation(t *testing.T) {
	s := newScriptedServer(t, 3, grant(1))
	c, err := DialContext(context.Background(), s.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	if _, err := c.Acquire(ctx, "L", 0); err != nil {
		t.Fatal(err)
	}
	cancel()
	if w := s.waits[0]; w == 0 || w > 500 {
		t.Fatalf("ctx-propagated WaitMillis = %d, want in (0, 500]", w)
	}

	if _, err := c.AcquireWithin(context.Background(), "L", 0, 120*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if w := s.waits[1]; w != 120 {
		t.Fatalf("explicit WaitMillis = %d, want 120", w)
	}

	// Explicit wait wins over a (longer) ctx deadline.
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	if _, err := c.AcquireWithin(ctx, "L", 0, 90*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	cancel()
	if w := s.waits[2]; w != 90 {
		t.Fatalf("explicit-over-ctx WaitMillis = %d, want 90", w)
	}

	// No deadline anywhere → no wait on the wire.
	if _, err := c.Acquire(context.Background(), "L", 0); err != nil {
		t.Fatal(err)
	}
	if w := s.waits[3]; w != 0 {
		t.Fatalf("deadline-free WaitMillis = %d, want 0", w)
	}
}

// TestDialHandshakeTimeout: a black-holed endpoint — the kernel's
// listen backlog completes the TCP connect, but no HELLO answer ever
// comes — must fail within HandshakeTimeout with the typed error, not
// hang forever.
func TestDialHandshakeTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() // never Accept: connections sit in the backlog

	old := HandshakeTimeout
	HandshakeTimeout = 150 * time.Millisecond
	defer func() { HandshakeTimeout = old }()

	start := time.Now()
	_, err = DialContext(context.Background(), ln.Addr().String())
	if !errors.Is(err, ErrHandshakeTimeout) {
		t.Fatalf("black-holed dial = %v, want ErrHandshakeTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("typed failure took %v, want ≈150ms", elapsed)
	}

	// A caller-supplied deadline takes precedence: the context's own
	// error comes back, not the package default's.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = DialContext(ctx, ln.Addr().String())
	if err == nil || errors.Is(err, ErrHandshakeTimeout) {
		t.Fatalf("deadline-carrying dial = %v, want the ctx's own failure", err)
	}
}

// TestNameTooLongTyped: an oversized name fails with the typed error
// before any bytes hit the wire, so the connection keeps its frame
// boundary and the next operation proceeds.
func TestNameTooLongTyped(t *testing.T) {
	s := newScriptedServer(t, 3, grant(3))
	c, err := DialContext(context.Background(), s.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	long := strings.Repeat("x", wire.MaxName+1)
	if _, err := c.Acquire(context.Background(), long, 0); !errors.Is(err, ErrNameTooLong) {
		t.Fatalf("oversized Acquire = %v, want ErrNameTooLong", err)
	}
	// Batch case: the whole batch is refused before the first frame.
	if _, err := c.Do(context.Background(), []Op{
		{Code: OpAcquire, Name: "ok"},
		{Code: OpAcquire, Name: long},
	}); !errors.Is(err, ErrNameTooLong) {
		t.Fatalf("oversized batch = %v, want ErrNameTooLong", err)
	}
	tok, err := c.Acquire(context.Background(), "L", 0)
	if err != nil || tok != 3 {
		t.Fatalf("post-refusal Acquire = (%d, %v), want (3, nil) on the same conn", tok, err)
	}
	if len(s.waits) != 1 {
		t.Fatalf("server saw %d ACQUIREs, want only the valid one", len(s.waits))
	}
}
