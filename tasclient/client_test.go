package tasclient

import (
	"context"
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

// TestGrantWithoutToken: an OK grant must carry its fencing token. An
// empty payload fails the call and breaks the client, instead of
// yielding token 0, which a later Release would send unfenced.
func TestGrantWithoutToken(t *testing.T) {
	s := newScriptedServer(t, wire.Version, func(int, wire.Request) wire.Response {
		return wire.Response{Status: wire.StatusOK}
	})
	ctx := context.Background()
	for _, acquire := range []func(*Client) (Token, error){
		func(c *Client) (Token, error) { return c.Acquire(ctx, "L", 0) },
		func(c *Client) (Token, error) {
			tok, _, err := c.TryAcquire(ctx, "L", 0)
			return tok, err
		},
	} {
		c, err := DialContext(ctx, s.addr)
		if err != nil {
			t.Fatal(err)
		}
		if tok, err := acquire(c); err == nil {
			t.Fatalf("tokenless grant accepted as token %d", tok)
		}
		if err := c.Release(ctx, "L", 0); !errors.Is(err, ErrBroken) {
			t.Fatalf("call after a tokenless grant = %v, want ErrBroken", err)
		}
		c.Close()
	}
}
