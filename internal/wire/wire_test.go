package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestRequestRoundTrip: every opcode survives encode→decode, including
// the empty name, the maximum name, and the trailers (lease TTLs,
// fencing tokens, epochs, HELLO versions). Frames with zero trailer
// fields (trailer omitted) must decode back to themselves.
func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpAcquire, ID: 1, Name: "build-cache"},
		{Op: OpAcquire, ID: 2, Name: "leased", TTLMillis: 1500},
		{Op: OpTryAcquire, ID: 0xffffffff, Name: ""},
		{Op: OpTryAcquire, ID: 3, Name: "leased", TTLMillis: 1},
		{Op: OpRelease, ID: 7, Name: "x"},
		{Op: OpRelease, ID: 8, Name: "x", Token: 0xdeadbeefcafe},
		{Op: OpElectEpoch, ID: 42, Name: strings.Repeat("n", MaxName)},
		{Op: OpElectEpoch, ID: 43, Name: "leader/x"},
		{Op: OpElectReset, ID: 44, Name: "leader/x", Epoch: 12},
		{Op: OpHello, ID: 0, Version: Version},
		{Op: OpStats, ID: 9},
	}
	var buf []byte
	for _, r := range reqs {
		var err error
		if buf, err = AppendRequest(buf, r); err != nil {
			t.Fatal(err)
		}
	}
	rd := bytes.NewReader(buf)
	for _, want := range reqs {
		got, err := ReadRequest(rd, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
	if _, err := ReadRequest(rd, 0); err != io.EOF {
		t.Fatalf("read past last frame: err = %v, want io.EOF", err)
	}
}

// TestResponseRoundTrip: statuses and payloads survive a pipelined
// batch.
func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Status: StatusOK, ID: 1},
		{Status: StatusBusy, ID: 2},
		{Status: StatusError, ID: 3, Payload: []byte("not held")},
		{Status: StatusOK, ID: 4, Payload: ElectPayload(true, 7)},
	}
	var buf []byte
	for _, r := range resps {
		buf = AppendResponse(buf, r)
	}
	rd := bytes.NewReader(buf)
	for _, want := range resps {
		got, err := ReadResponse(rd, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
	if (Response{Status: StatusError, Payload: []byte("boom")}).Err() != "boom" {
		t.Fatal("Err() lost the message")
	}
	if (Response{Status: StatusOK, Payload: []byte("x")}).Err() != "" {
		t.Fatal("Err() nonempty on OK")
	}
}

// TestNameTooLong: names longer than one length byte can express are
// rejected at encode time with the typed error, not silently truncated,
// and without appending any bytes (the stream stays frame-aligned).
func TestNameTooLong(t *testing.T) {
	prefix := []byte{1, 2, 3}
	buf, err := AppendRequest(prefix, Request{Op: OpAcquire, Name: strings.Repeat("a", MaxName+1)})
	if err == nil {
		t.Fatal("oversized name accepted")
	}
	if !errors.Is(err, ErrNameTooLong) {
		t.Fatalf("err = %v, want ErrNameTooLong", err)
	}
	if len(buf) != len(prefix) {
		t.Fatalf("failed append left %d bytes behind", len(buf)-len(prefix))
	}
}

// TestV3WaitTrailers: every blocking-capable op round-trips its waitMs
// trailer, and the wait-free encodings omit the wait field.
func TestV3WaitTrailers(t *testing.T) {
	reqs := []Request{
		{Op: OpAcquire, ID: 1, Name: "w", WaitMillis: 250},
		{Op: OpAcquire, ID: 2, Name: "w", TTLMillis: 1500, WaitMillis: 250},
		{Op: OpTryAcquire, ID: 3, Name: "w", WaitMillis: 10},
		{Op: OpElectEpoch, ID: 5, Name: "e", WaitMillis: 80},
		{Op: OpElectReset, ID: 6, Name: "e", Epoch: 9, WaitMillis: 80},
	}
	var buf []byte
	for _, r := range reqs {
		var err error
		if buf, err = AppendRequest(buf, r); err != nil {
			t.Fatal(err)
		}
	}
	rd := bytes.NewReader(buf)
	for _, want := range reqs {
		got, err := ReadRequest(rd, 0)
		if err != nil {
			t.Fatalf("%s: %v", OpName(want.Op), err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
	// An ACQUIRE with a wait but no TTL still encodes the 8-byte
	// trailer — the TTL slot is zero, not absent — so the decoder can
	// stay length-discriminated.
	one, err := AppendRequest(nil, Request{Op: OpAcquire, ID: 1, Name: "w", WaitMillis: 250})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 + 6 + 1 + 8; len(one) != want {
		t.Fatalf("wait-only ACQUIRE is %d bytes, want %d", len(one), want)
	}
	// Zero wait keeps the 4-byte TTL-only trailer.
	ttlOnly, err := AppendRequest(nil, Request{Op: OpAcquire, ID: 1, Name: "w", TTLMillis: 9})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 + 6 + 1 + 4; len(ttlOnly) != want {
		t.Fatalf("wait-free leased ACQUIRE is %d bytes, want %d (TTL-only trailer)", len(ttlOnly), want)
	}
	// A 5-byte ACQUIRE trailer is a protocol error, not a zeroed decode.
	bad, err := AppendRequest(nil, Request{Op: OpAcquire, ID: 1, Name: "w", TTLMillis: 1, WaitMillis: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad = bad[:len(bad)-3]
	binary.BigEndian.PutUint32(bad[:4], uint32(len(bad)-4))
	if _, err := ReadRequest(bytes.NewReader(bad), 0); err == nil {
		t.Fatal("5-byte ACQUIRE trailer accepted")
	}
}

// TestBusyPayload: the retry-after suggestion round-trips; the empty
// probe-loss payload parses as "no suggestion"; foreign shapes
// are rejected.
func TestBusyPayload(t *testing.T) {
	if p := BusyPayload(0); p != nil {
		t.Fatalf("BusyPayload(0) = %v, want nil (same frame as a probe loss)", p)
	}
	if ms, ok := ParseBusyPayload(BusyPayload(750)); !ok || ms != 750 {
		t.Fatalf("busy round trip = (%d, %v)", ms, ok)
	}
	if ms, ok := ParseBusyPayload(nil); !ok || ms != 0 {
		t.Fatalf("empty busy payload = (%d, %v), want (0, true)", ms, ok)
	}
	if _, ok := ParseBusyPayload([]byte{1, 2}); ok {
		t.Fatal("2-byte busy payload accepted")
	}
}

// TestOversizedFrame: a length prefix above the limit fails with
// ErrFrameTooLarge before any allocation of the claimed size.
func TestOversizedFrame(t *testing.T) {
	var buf []byte
	buf = binary.BigEndian.AppendUint32(buf, 1<<30)
	_, err := ReadRequest(bytes.NewReader(buf), 1024)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestPartialFrame: a stream cut mid-frame is io.ErrUnexpectedEOF —
// distinguishable from the clean between-frames close that maps to
// io.EOF.
func TestPartialFrame(t *testing.T) {
	full, err := AppendRequest(nil, Request{Op: OpAcquire, ID: 5, Name: "torn"})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{2, 4, 6, len(full) - 1} {
		_, err := ReadRequest(bytes.NewReader(full[:cut]), 0)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestV1FrameShape: a request without v2 extensions encodes exactly as
// the PR 4 protocol did — header, name, nothing else — so an old server
// parses a new client's v1-shaped traffic and an old client's frames
// decode on a new server with zeroed trailer fields.
func TestV1FrameShape(t *testing.T) {
	buf, err := AppendRequest(nil, Request{Op: OpAcquire, ID: 5, Name: "compat"})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 + 6 + len("compat"); len(buf) != want {
		t.Fatalf("v1-shaped ACQUIRE is %d bytes, want %d (trailer must be absent)", len(buf), want)
	}
	got, err := ReadRequest(bytes.NewReader(buf), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.TTLMillis != 0 || got.Token != 0 || got.Epoch != 0 || got.Version != 0 {
		t.Fatalf("v1 frame decoded with nonzero v2 fields: %+v", got)
	}
}

// TestTrailerValidation: wrong-sized trailers are protocol errors, not
// silent zeroes.
func TestTrailerValidation(t *testing.T) {
	good, err := AppendRequest(nil, Request{Op: OpAcquire, ID: 1, Name: "x", TTLMillis: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Chop one trailer byte and fix the length prefix: 3-byte TTL.
	bad := append([]byte{}, good[:len(good)-1]...)
	binary.BigEndian.PutUint32(bad[:4], uint32(len(bad)-4))
	if _, err := ReadRequest(bytes.NewReader(bad), 0); err == nil {
		t.Fatal("3-byte ACQUIRE trailer accepted")
	}
	// A trailer on an op that takes none.
	stats, err := AppendRequest(nil, Request{Op: OpStats, ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	stats = append(stats, 0xff)
	binary.BigEndian.PutUint32(stats[:4], uint32(len(stats)-4))
	if _, err := ReadRequest(bytes.NewReader(stats), 0); err == nil {
		t.Fatal("STATS frame with a trailer accepted")
	}
	// ELECTRESET requires its epoch.
	reset, err := AppendRequest(nil, Request{Op: OpElectReset, ID: 3, Name: "e", Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	reset = reset[:len(reset)-8]
	binary.BigEndian.PutUint32(reset[:4], uint32(len(reset)-4))
	if _, err := ReadRequest(bytes.NewReader(reset), 0); err == nil {
		t.Fatal("ELECTRESET without an epoch accepted")
	}
}

// TestPayloadHelpers: the typed payload encoders round-trip and reject
// foreign shapes.
func TestPayloadHelpers(t *testing.T) {
	if tok, ok := ParseTokenPayload(TokenPayload(0x1122334455667788)); !ok || tok != 0x1122334455667788 {
		t.Fatalf("token round trip = (%x, %v)", tok, ok)
	}
	if _, ok := ParseTokenPayload(nil); ok {
		t.Fatal("empty payload parsed as a token")
	}
	if leader, epoch, ok := ParseElectPayload(ElectPayload(true, 42)); !ok || !leader || epoch != 42 {
		t.Fatalf("elect round trip = (%v, %d, %v)", leader, epoch, ok)
	}
	// The retired 1-byte ELECT payload is a foreign shape.
	if _, _, ok := ParseElectPayload([]byte{ElectLeader}); ok {
		t.Fatal("1-byte elect payload accepted")
	}
	if _, _, ok := ParseElectPayload([]byte{1, 2}); ok {
		t.Fatal("2-byte elect payload accepted")
	}
	if v, ok := ParseHelloPayload(HelloPayload(2)); !ok || v != 2 {
		t.Fatalf("hello round trip = (%d, %v)", v, ok)
	}
	if _, ok := ParseHelloPayload([]byte{1}); ok {
		t.Fatal("short hello payload accepted")
	}
	if StatusName(StatusFenced) != "FENCED" || OpName(OpElectEpoch) != "ELECTEPOCH" {
		t.Fatal("mnemonics missing for FENCED or ELECTEPOCH")
	}
}

// TestCorruptLength: a frame whose body disagrees with its embedded
// name length is rejected.
func TestCorruptLength(t *testing.T) {
	full, err := AppendRequest(nil, Request{Op: OpAcquire, ID: 5, Name: "abcd"})
	if err != nil {
		t.Fatal(err)
	}
	full[9] = 9 // nameLen byte: claims 9, frame carries 4
	if _, err := ReadRequest(bytes.NewReader(full), 0); err == nil {
		t.Fatal("corrupt nameLen accepted")
	}
	var short []byte
	short = binary.BigEndian.AppendUint32(short, 3) // < request header
	short = append(short, 1, 2, 3)
	if _, err := ReadRequest(bytes.NewReader(short), 0); err == nil {
		t.Fatal("undersized request frame accepted")
	}
}

// TestExtendFrame: EXTEND round-trips its 12-byte trailer and rejects
// every malformed shape — a zero token or TTL (both directions), and a
// wrong-sized trailer.
func TestExtendFrame(t *testing.T) {
	want := Request{Op: OpExtend, ID: 11, Name: "leased", Token: 0xfeedface, TTLMillis: 2500}
	buf, err := AppendRequest(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if n := 4 + 6 + len("leased") + 12; len(buf) != n {
		t.Fatalf("EXTEND frame is %d bytes, want %d", len(buf), n)
	}
	got, err := ReadRequest(bytes.NewReader(buf), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}

	// Zero token / zero TTL refused at encode time.
	if _, err := AppendRequest(nil, Request{Op: OpExtend, Name: "x", TTLMillis: 5}); err == nil {
		t.Fatal("EXTEND with zero token encoded")
	}
	if _, err := AppendRequest(nil, Request{Op: OpExtend, Name: "x", Token: 1}); err == nil {
		t.Fatal("EXTEND with zero TTL encoded")
	}

	// ...and at decode time, for a hand-built all-zero trailer.
	zero := append([]byte{}, buf...)
	for i := len(zero) - 12; i < len(zero); i++ {
		zero[i] = 0
	}
	if _, err := ReadRequest(bytes.NewReader(zero), 0); err == nil {
		t.Fatal("EXTEND with zeroed trailer decoded")
	}

	// Wrong trailer size is a framing error.
	short := append([]byte{}, buf[:len(buf)-4]...)
	binary.BigEndian.PutUint32(short[:4], uint32(len(short)-4))
	if _, err := ReadRequest(bytes.NewReader(short), 0); err == nil {
		t.Fatal("8-byte EXTEND trailer accepted")
	}
}
