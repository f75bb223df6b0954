package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// bufSizes are the bufio sizes every decoding test also runs the Reader
// at: the smallest bufio allows, below the length of the frames built
// with longName (the copy fallback), and one above every test frame (in
// place).
var bufSizes = []int{16, 4096}

// longName makes a request frame longer than the smaller of bufSizes.
const longName = "name-longer-than-the-small-buffer"

// decodeAll reads frames with next until the first error.
func decodeAll[T any](next func() (T, error)) ([]T, error) {
	var out []T
	for {
		v, err := next()
		if err != nil {
			return out, err
		}
		out = append(out, v)
	}
}

// sameErr reports whether two decoders failed the same way: the same
// message, and the same answer to every check callers make.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error() &&
		(a == io.EOF) == (b == io.EOF) &&
		(a == io.ErrUnexpectedEOF) == (b == io.ErrUnexpectedEOF) &&
		errors.Is(a, ErrFrameTooLarge) == errors.Is(b, ErrFrameTooLarge)
}

// agree decodes stream up to its first error with a copying decoder,
// and with a Reader at each of bufSizes; it fails t unless all of them
// return the same frames and the same error, and returns those.
func agree[T any](t testing.TB, stream []byte, maxFrame int, copying func(io.Reader, int) (T, error), inPlace func(*Reader) (T, error)) ([]T, error) {
	t.Helper()
	src := bytes.NewReader(stream)
	want, wantErr := decodeAll(func() (T, error) { return copying(src, maxFrame) })
	for _, size := range bufSizes {
		rd := NewReader(bufio.NewReaderSize(bytes.NewReader(stream), size), maxFrame)
		got, err := decodeAll(func() (T, error) { return inPlace(rd) })
		if !reflect.DeepEqual(got, want) || !sameErr(err, wantErr) {
			t.Fatalf("Reader (bufio %d) decoded %+v, %v; the copying decoder %+v, %v", size, got, err, want, wantErr)
		}
	}
	return want, wantErr
}

// readRequests is agree for ReadRequest and Reader.ReadRequest.
func readRequests(t testing.TB, stream []byte, maxFrame int) ([]Request, error) {
	t.Helper()
	return agree(t, stream, maxFrame, ReadRequest, (*Reader).ReadRequest)
}

// readRequest is readRequests for a one-frame stream.
func readRequest(t testing.TB, frame []byte, maxFrame int) (Request, error) {
	t.Helper()
	reqs, err := readRequests(t, frame, maxFrame)
	if len(reqs) > 0 {
		return reqs[0], nil
	}
	return Request{}, err
}

// readResponses is agree for ReadResponse and Reader.ReadResponse.
func readResponses(t testing.TB, stream []byte, maxFrame int) ([]Response, error) {
	t.Helper()
	return agree(t, stream, maxFrame, ReadResponse, func(rd *Reader) (Response, error) {
		resp, err := rd.ReadResponse()
		resp.Payload = bytes.Clone(resp.Payload) // valid only until the next read
		return resp, err
	})
}

// appendRequests encodes reqs back to back.
func appendRequests(t testing.TB, reqs []Request) []byte {
	t.Helper()
	var buf []byte
	for _, r := range reqs {
		var err error
		if buf, err = AppendRequest(buf, r); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// roundTripRequests covers every opcode, the empty and the maximum
// name, and the trailers (lease TTLs, fencing tokens, epochs, HELLO
// versions).
var roundTripRequests = []Request{
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
	{Op: OpExtend, ID: 10, Name: longName, Token: 5, TTLMillis: 900},
}

// waitTrailerRequests covers every blocking-capable op with its waitMs
// trailer.
var waitTrailerRequests = []Request{
	{Op: OpAcquire, ID: 1, Name: "w", WaitMillis: 250},
	{Op: OpAcquire, ID: 2, Name: "w", TTLMillis: 1500, WaitMillis: 250},
	{Op: OpTryAcquire, ID: 3, Name: "w", WaitMillis: 10},
	{Op: OpElectEpoch, ID: 5, Name: "e", WaitMillis: 80},
	{Op: OpElectReset, ID: 6, Name: "e", Epoch: 9, WaitMillis: 80},
	{Op: OpAcquire, ID: 7, Name: longName, TTLMillis: 1500, WaitMillis: 250},
}

// roundTripResponses covers every status, with and without payloads.
var roundTripResponses = []Response{
	{Status: StatusOK, ID: 1},
	{Status: StatusBusy, ID: 2},
	{Status: StatusError, ID: 3, Payload: []byte("not held")},
	{Status: StatusOK, ID: 4, Payload: ElectPayload(true, 7)},
	{Status: StatusFenced, ID: 5, Payload: TokenPayload(1 << 40)},
	{Status: StatusError, ID: 6, Payload: []byte(longName)},
}

// TestRequestRoundTrip: every opcode survives encode→decode, including
// the empty name, the maximum name, and the trailers (lease TTLs,
// fencing tokens, epochs, HELLO versions). Frames with zero trailer
// fields (trailer omitted) must decode back to themselves. Every
// decoder — ReadRequest, the Reader copying and in place — agrees.
func TestRequestRoundTrip(t *testing.T) {
	got, err := readRequests(t, appendRequests(t, roundTripRequests), 0)
	if !slices.Equal(got, roundTripRequests) {
		t.Fatalf("round trip: got %+v, want %+v", got, roundTripRequests)
	}
	if err != io.EOF {
		t.Fatalf("read past last frame: err = %v, want io.EOF", err)
	}
}

// TestResponseRoundTrip: statuses and payloads survive a pipelined
// batch.
func TestResponseRoundTrip(t *testing.T) {
	var buf []byte
	for _, r := range roundTripResponses {
		buf = AppendResponse(buf, r)
	}
	got, err := readResponses(t, buf, 0)
	if err != io.EOF || len(got) != len(roundTripResponses) {
		t.Fatalf("decoded %d responses then %v, want %d then io.EOF", len(got), err, len(roundTripResponses))
	}
	for i, want := range roundTripResponses {
		if got[i].Status != want.Status || got[i].ID != want.ID || !bytes.Equal(got[i].Payload, want.Payload) {
			t.Fatalf("round trip: got %+v, want %+v", got[i], want)
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
	got, err := readRequests(t, appendRequests(t, waitTrailerRequests), 0)
	if err != io.EOF {
		t.Fatalf("after %d frames: %v", len(got), err)
	}
	if !slices.Equal(got, waitTrailerRequests) {
		t.Fatalf("round trip: got %+v, want %+v", got, waitTrailerRequests)
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
	if _, err := readRequest(t, bad, 0); err == nil {
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
	_, err := readRequest(t, buf, 1024)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestPartialFrame: a stream cut mid-frame is io.ErrUnexpectedEOF —
// distinguishable from the clean between-frames close that maps to
// io.EOF.
func TestPartialFrame(t *testing.T) {
	for _, name := range []string{"torn", longName} {
		full, err := AppendRequest(nil, Request{Op: OpAcquire, ID: 5, Name: name})
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{2, 4, 6, len(full) - 1} {
			_, err := readRequest(t, full[:cut], 0)
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("%q cut at %d: err = %v, want io.ErrUnexpectedEOF", name, cut, err)
			}
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
	got, err := readRequest(t, buf, 0)
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
	for _, name := range []string{"x", longName} {
		good, err := AppendRequest(nil, Request{Op: OpAcquire, ID: 1, Name: name, TTLMillis: 9})
		if err != nil {
			t.Fatal(err)
		}
		// Chop one trailer byte and fix the length prefix: 3-byte TTL.
		bad := append([]byte{}, good[:len(good)-1]...)
		binary.BigEndian.PutUint32(bad[:4], uint32(len(bad)-4))
		if _, err := readRequest(t, bad, 0); err == nil {
			t.Fatalf("%q: 3-byte ACQUIRE trailer accepted", name)
		}
		// A trailer on an op that takes none.
		stats, err := AppendRequest(nil, Request{Op: OpStats, ID: 2, Name: name})
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, 0xff)
		binary.BigEndian.PutUint32(stats[:4], uint32(len(stats)-4))
		if _, err := readRequest(t, stats, 0); err == nil {
			t.Fatalf("%q: STATS frame with a trailer accepted", name)
		}
		// ELECTRESET requires its epoch.
		reset, err := AppendRequest(nil, Request{Op: OpElectReset, ID: 3, Name: name, Epoch: 1})
		if err != nil {
			t.Fatal(err)
		}
		reset = reset[:len(reset)-8]
		binary.BigEndian.PutUint32(reset[:4], uint32(len(reset)-4))
		if _, err := readRequest(t, reset, 0); err == nil {
			t.Fatalf("%q: ELECTRESET without an epoch accepted", name)
		}
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
	for _, name := range []string{"abcd", longName} {
		full, err := AppendRequest(nil, Request{Op: OpAcquire, ID: 5, Name: name})
		if err != nil {
			t.Fatal(err)
		}
		full[9] = byte(len(name) + 5) // nameLen byte: claims 5 more than the frame carries
		if _, err := readRequest(t, full, 0); err == nil {
			t.Fatalf("%q: corrupt nameLen accepted", name)
		}
	}
	var short []byte
	short = binary.BigEndian.AppendUint32(short, 3) // < request header
	short = append(short, 1, 2, 3)
	if _, err := readRequest(t, short, 0); err == nil {
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
	got, err := readRequest(t, buf, 0)
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
	if _, err := readRequest(t, zero, 0); err == nil {
		t.Fatal("EXTEND with zeroed trailer decoded")
	}

	// Wrong trailer size is a framing error.
	short := append([]byte{}, buf[:len(buf)-4]...)
	binary.BigEndian.PutUint32(short[:4], uint32(len(short)-4))
	if _, err := readRequest(t, short, 0); err == nil {
		t.Fatal("8-byte EXTEND trailer accepted")
	}
}

// TestInternBound: a Reader that meets more distinct names than its
// table holds still decodes every one of them correctly, and the table
// stops growing at the bound.
func TestInternBound(t *testing.T) {
	var want []Request
	name := func(i int) string { return fmt.Sprintf("lock-%d", i) }
	for i := 0; i < maxInterned+10; i++ {
		want = append(want, Request{Op: OpAcquire, ID: uint32(i), Name: name(i)})
	}
	// Names met again, both interned (first) and past the bound (last).
	for _, i := range []int{0, 1, maxInterned + 8, maxInterned + 9} {
		want = append(want, Request{Op: OpRelease, ID: uint32(len(want)), Name: name(i)})
	}
	stream := appendRequests(t, want)
	got, err := readRequests(t, stream, 0)
	if err != io.EOF || !slices.Equal(got, want) {
		t.Fatalf("decoded %d of %d requests correctly, then %v", len(got), len(want), err)
	}
	rd := NewReader(bufio.NewReader(bytes.NewReader(stream)), 0)
	if _, err := decodeAll(rd.ReadRequest); err != io.EOF {
		t.Fatal(err)
	}
	if len(rd.names) != maxInterned {
		t.Fatalf("name table holds %d names, want the bound %d", len(rd.names), maxInterned)
	}
}

// TestReaderBuffered: Buffered is true exactly when the next frame is
// whole in the buffer, or when its length prefix is over the limit (the
// read then fails at once).
func TestReaderBuffered(t *testing.T) {
	frame, err := AppendRequest(nil, Request{Op: OpAcquire, ID: 1, Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	oversized := binary.BigEndian.AppendUint32(nil, 1<<20)
	for _, tc := range []struct {
		stream []byte
		want   bool
	}{
		{nil, false},
		{frame[:3], false},
		{frame[:len(frame)-1], false},
		{frame, true},
		{oversized, true},
	} {
		br := bufio.NewReader(bytes.NewReader(tc.stream))
		br.Peek(len(tc.stream)) // buffer the whole stream
		if got := NewReader(br, 64).Buffered(); got != tc.want {
			t.Fatalf("Buffered on %d of a %d-byte frame = %v, want %v", len(tc.stream), len(frame), got, tc.want)
		}
	}
}

// repeatReader serves data over and over, without allocating.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(b []byte) (int, error) {
	n := copy(b, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// TestReaderZeroAlloc: once a connection's names are interned, decoding
// a pipelined batch of 16 ACQUIRE(TTL)+RELEASE pairs in place allocates
// nothing.
func TestReaderZeroAlloc(t *testing.T) {
	var batch []Request
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("pairs-%d", i)
		batch = append(batch,
			Request{Op: OpAcquire, ID: uint32(2 * i), Name: name, TTLMillis: 10000},
			Request{Op: OpRelease, ID: uint32(2*i + 1), Name: name})
	}
	rd := NewReader(bufio.NewReaderSize(&repeatReader{data: appendRequests(t, batch)}, 64<<10), 0)
	decode := func() {
		for _, want := range batch {
			if got, err := rd.ReadRequest(); err != nil || got != want {
				t.Fatalf("decoded %+v, %v; want %+v", got, err, want)
			}
		}
	}
	decode() // interns the names
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Fatalf("%.2f allocations per %d-frame batch, want 0", allocs, len(batch))
	}
}

// FuzzReader: on any byte stream, the Reader — copying through a tiny
// bufio buffer or decoding in place — returns exactly the requests and
// responses, and the error, that ReadRequest and ReadResponse return
// over the same bytes.
func FuzzReader(f *testing.F) {
	const maxFrame = 512
	var all []byte
	for _, reqs := range [][]Request{roundTripRequests, waitTrailerRequests} {
		for _, req := range reqs {
			frame, err := AppendRequest(nil, req)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame)
			f.Add(frame[:len(frame)-1])
			all = append(all, frame...)
		}
	}
	f.Add(all)
	for _, resp := range roundTripResponses {
		f.Add(AppendResponse(nil, resp))
	}
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1))
	f.Fuzz(func(t *testing.T, stream []byte) {
		readRequests(t, stream, maxFrame)
		readResponses(t, stream, maxFrame)
	})
}
