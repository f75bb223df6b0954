package tasclient

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestDialSurfacesRealRefusals: a refusal that is not a version
// mismatch (the old server's "server full" frame) must error, not fall
// back.
func TestDialSurfacesRealRefusals(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		nc.Write(wire.AppendResponse(nil, wire.Response{
			Status: wire.StatusError, Payload: []byte("server full: 64 clients connected"),
		}))
		nc.Close()
	}()
	if _, err := DialContext(context.Background(), ln.Addr().String()); err == nil {
		t.Fatal("server-full refusal dialed successfully")
	}
}

// TestDialRefusesOldServer: a server that answers HELLO with an older
// protocol version fails the dial with an error naming both versions,
// and the client does not redial.
func TestDialRefusesOldServer(t *testing.T) {
	s := newScriptedServer(t, 2, grant(1))
	_, err := DialContext(context.Background(), s.addr)
	if err == nil {
		t.Fatal("dial against a v2 server succeeded")
	}
	for _, want := range []string{"v2", fmt.Sprintf("v%d", wire.Version)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("dial error %q does not name %s", err, want)
		}
	}
	// A redial would show up as a second accepted connection.
	time.Sleep(50 * time.Millisecond)
	if n := s.accepts.Load(); n != 1 {
		t.Fatalf("server accepted %d connections, want 1 (no redial)", n)
	}
}

// TestGrantWithoutToken: an OK answer must carry the value the op is
// for. A grant without its fencing token, an ELECTEPOCH without
// leadership and epoch, and an ELECTRESET without the current epoch
// each fail the call and break the client, instead of yielding token or
// epoch 0 (a later Release(…, 0) would go unfenced).
func TestGrantWithoutToken(t *testing.T) {
	s := newScriptedServer(t, wire.Version, func(int, wire.Request) wire.Response {
		return wire.Response{Status: wire.StatusOK}
	})
	ctx := context.Background()
	for _, tc := range []struct {
		op   string
		call func(*Client) (uint64, error)
	}{
		{"ACQUIRE", func(c *Client) (uint64, error) {
			tok, err := c.Acquire(ctx, "L", 0)
			return uint64(tok), err
		}},
		{"TRYACQUIRE", func(c *Client) (uint64, error) {
			tok, _, err := c.TryAcquire(ctx, "L", 0)
			return uint64(tok), err
		}},
		{"ELECTEPOCH", func(c *Client) (uint64, error) {
			_, epoch, err := c.Elect(ctx, "E")
			return epoch, err
		}},
		{"ELECTRESET", func(c *Client) (uint64, error) { return c.ResetElection(ctx, "E", 1) }},
	} {
		c, err := DialContext(ctx, s.addr)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := tc.call(c); err == nil {
			t.Fatalf("%s: empty OK payload accepted as %d", tc.op, v)
		}
		if err := c.Release(ctx, "L", 0); !errors.Is(err, ErrBroken) {
			t.Fatalf("%s: call after an empty OK payload = %v, want ErrBroken", tc.op, err)
		}
		c.Close()
	}
}

// cannedConn answers every request frame written to it at once with OK:
// the next token (1, 2, …) for ACQUIRE, the protocol version for HELLO,
// and an empty payload otherwise. It allocates nothing once its buffer
// has grown.
type cannedConn struct {
	net.Conn // nil: only the methods below are called
	out      []byte
	off      int
	tok      uint64
}

func (c *cannedConn) Write(b []byte) (int, error) {
	for p := b; len(p) >= 9; {
		n := binary.BigEndian.Uint32(p)
		resp := wire.Response{Status: wire.StatusOK, ID: binary.BigEndian.Uint32(p[5:9])}
		switch p[4] {
		case wire.OpHello:
			resp.Payload = wire.HelloPayload(wire.Version)
		case wire.OpAcquire:
			c.tok++
			resp.Payload = wire.TokenPayload(c.tok)
		}
		c.out = wire.AppendResponse(c.out, resp)
		p = p[4+n:]
	}
	return len(b), nil
}

func (c *cannedConn) Read(b []byte) (int, error) {
	n := copy(b, c.out[c.off:])
	if c.off += n; c.off == len(c.out) {
		c.out, c.off = c.out[:0], 0
	}
	return n, nil
}

func (c *cannedConn) Close() error { return nil }

// TestDoAllocs: a pipelined batch of 16 ACQUIRE(TTL)+RELEASE pairs
// costs at most two allocations: the results and one block holding
// every payload. Responses are decoded in place, and each payload is
// the caller's own copy.
func TestDoAllocs(t *testing.T) {
	ctx := context.Background()
	c, err := NewClientConn(ctx, &cannedConn{})
	if err != nil {
		t.Fatal(err)
	}
	var batch []Op
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("pairs-%d", i)
		batch = append(batch,
			Op{Code: OpAcquire, Name: name, TTL: 10 * time.Second},
			Op{Code: OpRelease, Name: name})
	}
	var first []Result
	do := func() {
		res, err := c.Do(ctx, batch)
		if err != nil || !res[0].OK || res[0].Token == 0 {
			t.Fatalf("Do = %+v, %v", res, err)
		}
		if first == nil {
			first = res
		}
	}
	do() // grows the write and read buffers
	if allocs := testing.AllocsPerRun(100, do); allocs > 2 {
		t.Fatalf("%.2f allocations per %d-op batch, want ≤ 2", allocs, len(batch))
	}
	// The first batch's payloads survived every later read.
	for i := 0; i < len(first); i += 2 {
		if tok, ok := wire.ParseTokenPayload(first[i].Payload); !ok || tok != uint64(i/2+1) {
			t.Fatalf("result %d payload %x, want token %d", i, first[i].Payload, i/2+1)
		}
	}
}
