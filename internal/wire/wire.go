// Package wire defines tasd's compact length-prefixed binary protocol,
// shared by the server (internal/server) and the public client
// (tasclient).
//
// Every message is one frame:
//
//	request:  | len u32 | op u8     | id u32 | nameLen u8 | name ... | trailer ... |
//	response: | len u32 | status u8 | id u32 | payload ...                         |
//
// All integers are big-endian; len counts the bytes after the length
// field itself. The id is a client-chosen correlation token echoed
// verbatim in the response, which is what makes pipelining safe: a
// client may write any number of request frames back to back and match
// the (in-order) responses by id. Frames are deliberately tiny — an
// ACQUIRE of a 10-byte name is 20 bytes on the wire — so a pipelined
// batch of dozens of operations fits in one TCP segment and the server
// can turn the whole batch around with one read and one write.
//
// # Operations
//
// This build speaks one protocol, Version 3. Its operations are:
//
//   - ACQUIRE (blocking), TRYACQUIRE (single probe, never blocks),
//     RELEASE and EXTEND on named fenced locks;
//   - ELECTEPOCH and ELECTRESET on named epoch'd elections;
//   - STATS, a JSON snapshot of the server's counters;
//   - HELLO, the optional handshake. It carries the highest version
//     the client speaks; the server answers with Version, and refuses
//     (error frame, then close) a client that speaks less.
//
// Opcode 4 is retired and must not be reused. Requests carry per-op
// trailers after the name:
//
//	HELLO       u32 max version the client speaks
//	ACQUIRE     [u32 lease TTL ms [+ u32 wait ms]]   (0, 4 or 8 bytes)
//	TRYACQUIRE  [u32 lease TTL ms [+ u32 wait ms]]   (0, 4 or 8 bytes)
//	RELEASE     [u64 fencing token]                  (0 or 8 bytes)
//	ELECTEPOCH  [u32 wait ms]                        (0 or 4 bytes)
//	ELECTRESET  u64 epoch believed current [+ u32 wait ms] (8 or 12 bytes)
//	EXTEND      u64 fencing token + u32 new lease TTL ms   (12 bytes)
//
// Trailers are length-discriminated, and encoders omit zero-valued
// optional fields: an absent TTL means no lease, an absent token on
// RELEASE means "release the grant the server recorded for this
// connection", and an absent wait means no deadline. The wait field is
// the client's propagated deadline ("answer me within waitMs or give up
// on my behalf").
//
// EXTEND renews the lease of a live grant (the heartbeat behind
// tasclient.KeepAlive): if the token still owns the lock the lease
// deadline moves to now + TTL and the answer is OK; a superseded token
// answers StatusFenced with the current fence, telling the holder to
// stop renewing. An extension must arrive at least one sweep interval
// before the old deadline to be guaranteed effective — renewing at
// TTL/3 intervals, as KeepAlive does, clears that bar comfortably.
//
// Successful ACQUIRE / TRYACQUIRE responses carry the granted fencing
// token (u64); ELECTEPOCH answers leader(u8) + epoch(u64); ELECTRESET
// answers the now-current epoch (u64); HELLO answers Version (u32).
// StatusBusy answers a lost TRYACQUIRE probe (empty payload) and an
// ACQUIRE the server refused to wait out — admission-control shed or
// propagated-deadline expiry — with an optional u32 retryAfterMs
// payload suggesting when to retry. StatusFenced answers a RELEASE
// whose token was superseded (lease expired and the lock re-granted)
// and an ELECTRESET whose epoch is stale — stale parties learn they
// were fenced, never an opaque error.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the protocol version this build speaks, and the only one
// it serves.
const Version = 3

// Request opcodes.
const (
	OpAcquire    byte = 1 // blocking lock acquisition (optional lease TTL)
	OpTryAcquire byte = 2 // single non-blocking probe (optional lease TTL)
	OpRelease    byte = 3 // release a held lock (fencing token verified)
	// Opcode 4 is retired (the decided-once ELECT); never reuse it.
	OpStats      byte = 5 // JSON counter snapshot
	OpHello      byte = 6 // version handshake, optional first frame
	OpElectEpoch byte = 7 // participate in the election's current epoch
	OpElectReset byte = 8 // retire the given epoch and install the next
	OpExtend     byte = 9 // renew the lease on a held lock (token verified)
)

// Response status codes.
const (
	StatusOK     byte = 0 // operation succeeded; see per-op payloads
	StatusBusy   byte = 1 // probe lost, request shed, or deadline expired (optional retryAfterMs payload)
	StatusError  byte = 2 // payload is a human-readable error message
	StatusFenced byte = 3 // the token/epoch was superseded; payload: current fence (u64)
)

// ELECTEPOCH response leadership bytes.
const (
	ElectLoser  byte = 0
	ElectLeader byte = 1
)

// Frame-size limits. MaxName bounds lock names (the name length travels
// in one byte); DefaultMaxFrame bounds any frame a peer will read —
// large enough for a STATS snapshot of thousands of locks, small enough
// that a hostile or corrupt length prefix cannot make a peer allocate
// gigabytes.
const (
	MaxName         = 255
	DefaultMaxFrame = 1 << 20

	requestHeader  = 6 // op(1) + id(4) + nameLen(1)
	responseHeader = 5 // status(1) + id(4)
)

// ErrFrameTooLarge is returned when a frame's length prefix exceeds the
// reader's limit. The connection is unrecoverable after it: the stream
// offset no longer points at a frame boundary.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrNameTooLong is returned by AppendRequest when a name exceeds
// MaxName. It fires before any bytes are appended, so a pipelining
// client can reject the bad operation without poisoning the stream.
var ErrNameTooLong = errors.New("wire: name exceeds the 255-byte limit")

// OpName returns the mnemonic for an opcode, for logs and errors.
func OpName(op byte) string {
	switch op {
	case OpAcquire:
		return "ACQUIRE"
	case OpTryAcquire:
		return "TRYACQUIRE"
	case OpRelease:
		return "RELEASE"
	case OpStats:
		return "STATS"
	case OpHello:
		return "HELLO"
	case OpElectEpoch:
		return "ELECTEPOCH"
	case OpElectReset:
		return "ELECTRESET"
	case OpExtend:
		return "EXTEND"
	default:
		return fmt.Sprintf("op(%d)", op)
	}
}

// StatusName returns the mnemonic for a status code.
func StatusName(s byte) string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusBusy:
		return "BUSY"
	case StatusError:
		return "ERROR"
	case StatusFenced:
		return "FENCED"
	default:
		return fmt.Sprintf("status(%d)", s)
	}
}

// Request is one decoded client→server frame. The trailer fields are
// zero when the frame omits them.
type Request struct {
	Op   byte
	ID   uint32
	Name string

	// TTLMillis is the requested lease in milliseconds on ACQUIRE /
	// TRYACQUIRE, or the renewed lease on EXTEND (where it must be
	// positive); 0 means no lease.
	TTLMillis uint32
	// Token is the fencing token on RELEASE (0 means "whatever the
	// server recorded") and the token being renewed on EXTEND
	// (required).
	Token uint64
	// Epoch is the compare-and-bump guard on ELECTRESET.
	Epoch uint64
	// Version is the client's highest spoken version on HELLO.
	Version uint32
	// WaitMillis is the client's propagated deadline: the server should
	// answer — grant, shed, or abort the wait — within this many
	// milliseconds. 0 means no deadline. Valid on ACQUIRE, TRYACQUIRE,
	// ELECTEPOCH and ELECTRESET.
	WaitMillis uint32
}

// Response is one decoded server→client frame.
type Response struct {
	Status  byte
	ID      uint32
	Payload []byte
}

// Err returns the response's error message when Status is StatusError,
// and "" otherwise.
func (r Response) Err() string {
	if r.Status != StatusError {
		return ""
	}
	return string(r.Payload)
}

// trailerLen returns the encoded trailer size for req.
func trailerLen(req Request) int {
	switch req.Op {
	case OpHello:
		return 4
	case OpAcquire, OpTryAcquire:
		if req.WaitMillis != 0 {
			return 8
		}
		if req.TTLMillis != 0 {
			return 4
		}
	case OpRelease:
		if req.Token != 0 {
			return 8
		}
	case OpElectEpoch:
		if req.WaitMillis != 0 {
			return 4
		}
	case OpElectReset:
		if req.WaitMillis != 0 {
			return 12
		}
		return 8
	case OpExtend:
		return 12
	}
	return 0
}

// AppendRequest appends req's frame to buf and returns the extended
// slice, so a pipelining client can pack a whole batch into one write.
// Zero-valued trailer fields are omitted where the protocol allows.
func AppendRequest(buf []byte, req Request) ([]byte, error) {
	if len(req.Name) > MaxName {
		return buf, fmt.Errorf("%w (%d bytes)", ErrNameTooLong, len(req.Name))
	}
	if req.Op == OpExtend && (req.Token == 0 || req.TTLMillis == 0) {
		return buf, errors.New("wire: EXTEND requires a fencing token and a positive TTL")
	}
	tl := trailerLen(req)
	buf = binary.BigEndian.AppendUint32(buf, uint32(requestHeader+len(req.Name)+tl))
	buf = append(buf, req.Op)
	buf = binary.BigEndian.AppendUint32(buf, req.ID)
	buf = append(buf, byte(len(req.Name)))
	buf = append(buf, req.Name...)
	switch req.Op {
	case OpHello:
		buf = binary.BigEndian.AppendUint32(buf, req.Version)
	case OpExtend:
		buf = binary.BigEndian.AppendUint64(buf, req.Token)
		buf = binary.BigEndian.AppendUint32(buf, req.TTLMillis)
	case OpAcquire, OpTryAcquire:
		if tl >= 4 {
			buf = binary.BigEndian.AppendUint32(buf, req.TTLMillis)
		}
		if tl == 8 {
			buf = binary.BigEndian.AppendUint32(buf, req.WaitMillis)
		}
	case OpRelease:
		if tl == 8 {
			buf = binary.BigEndian.AppendUint64(buf, req.Token)
		}
	case OpElectEpoch:
		if tl == 4 {
			buf = binary.BigEndian.AppendUint32(buf, req.WaitMillis)
		}
	case OpElectReset:
		buf = binary.BigEndian.AppendUint64(buf, req.Epoch)
		if tl == 12 {
			buf = binary.BigEndian.AppendUint32(buf, req.WaitMillis)
		}
	}
	return buf, nil
}

// AppendResponse appends resp's frame to buf and returns the extended
// slice, so the server can coalesce a batch's responses into one write.
func AppendResponse(buf []byte, resp Response) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(responseHeader+len(resp.Payload)))
	buf = append(buf, resp.Status)
	buf = binary.BigEndian.AppendUint32(buf, resp.ID)
	return append(buf, resp.Payload...)
}

// readFrame reads one length-prefixed frame body into a fresh slice.
func readFrame(r io.Reader, maxFrame int) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err // io.EOF only on a clean frame boundary
	}
	n, err := frameLen(lenBuf[:], maxFrame)
	if err != nil {
		return nil, err
	}
	return readBody(r, n)
}

// frameLen decodes a length prefix and checks it against maxFrame.
func frameLen(prefix []byte, maxFrame int) (uint32, error) {
	n := binary.BigEndian.Uint32(prefix)
	// Compare in uint64: int(n) would go negative on 32-bit platforms
	// for prefixes ≥ 2³¹ and dodge the limit straight into make().
	if uint64(n) > uint64(maxFrame) {
		return 0, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxFrame)
	}
	return n, nil
}

// readBody reads an n-byte frame body, whose length prefix has already
// been consumed, into a fresh slice.
func readBody(r io.Reader, n uint32) ([]byte, error) {
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // torn mid-frame
		}
		return nil, err
	}
	return body, nil
}

// ReadRequest reads and decodes one request frame. maxFrame ≤ 0 means
// DefaultMaxFrame. io.EOF is returned only on a clean close between
// frames; a connection torn mid-frame yields io.ErrUnexpectedEOF. An
// absent optional trailer decodes to zero values; a trailer of the
// wrong size is a protocol error.
func ReadRequest(r io.Reader, maxFrame int) (Request, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	body, err := readFrame(r, maxFrame)
	if err != nil {
		return Request{}, err
	}
	return decodeRequest(body, nil)
}

// ReadResponse reads and decodes one response frame. maxFrame ≤ 0 means
// DefaultMaxFrame.
func ReadResponse(r io.Reader, maxFrame int) (Response, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	body, err := readFrame(r, maxFrame)
	if err != nil {
		return Response{}, err
	}
	return decodeResponse(body)
}

// maxInterned bounds a Reader's name table. A connection that cycles
// through more distinct names still decodes every one of them; names
// past the bound are copied per request instead of shared.
const maxInterned = 1024

// Reader decodes frames from a buffered stream, in place: a frame that
// fits in the bufio buffer is decoded straight out of it, and only a
// larger one (a big STATS reply) is copied out first. Request names are
// interned in a per-Reader table of at most maxInterned entries, so a
// connection that keeps using the same names decodes its requests
// without allocating. The errors are ReadRequest's and ReadResponse's.
// A Reader is not safe for concurrent use.
type Reader struct {
	br       *bufio.Reader
	maxFrame int
	names    map[string]string
}

// NewReader returns a Reader over br. maxFrame ≤ 0 means
// DefaultMaxFrame.
func NewReader(br *bufio.Reader, maxFrame int) *Reader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &Reader{br: br, maxFrame: maxFrame, names: map[string]string{}}
}

// Buffered reports whether a whole frame is already buffered, so the
// next read cannot block. A length prefix over the limit counts as
// whole: reading it fails at once with ErrFrameTooLarge.
func (r *Reader) Buffered() bool {
	if r.br.Buffered() < 4 {
		return false
	}
	head, _ := r.br.Peek(4) // four bytes are buffered: cannot block or fail
	n := uint64(binary.BigEndian.Uint32(head))
	return n > uint64(r.maxFrame) || uint64(r.br.Buffered()) >= 4+n
}

// ReadRequest reads and decodes one request frame. The Request shares
// no memory with the buffer.
func (r *Reader) ReadRequest() (Request, error) {
	body, err := r.next()
	if err != nil {
		return Request{}, err
	}
	return decodeRequest(body, r.names)
}

// ReadResponse reads and decodes one response frame. The Payload may
// alias the Reader's buffer: it is valid only until the next call on r,
// so copy whatever must outlive it.
func (r *Reader) ReadResponse() (Response, error) {
	body, err := r.next()
	if err != nil {
		return Response{}, err
	}
	return decodeResponse(body)
}

// next consumes one frame and returns its body: a view of the bufio
// buffer, valid until the next read, when the frame fits in it, and a
// fresh copy otherwise.
func (r *Reader) next() ([]byte, error) {
	head, err := r.br.Peek(4)
	if err != nil {
		if err == io.EOF && len(head) > 0 {
			err = io.ErrUnexpectedEOF // torn inside the length prefix
		}
		return nil, err // io.EOF only on a clean frame boundary
	}
	n, err := frameLen(head, r.maxFrame)
	r.br.Discard(4) // just peeked: cannot fail
	if err != nil {
		return nil, err
	}
	if int(n) > r.br.Size() {
		return readBody(r.br, n)
	}
	body, err := r.br.Peek(int(n))
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // torn mid-frame
		}
		return nil, err
	}
	r.br.Discard(int(n)) // just peeked: cannot fail; body stays valid until the next read
	return body, nil
}

// intern returns b as a string, shared through names when it is there
// or there is room to add it. A nil table copies every time.
func intern(names map[string]string, b []byte) string {
	if names == nil {
		return string(b)
	}
	if s, ok := names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(names) < maxInterned {
		names[s] = s
	}
	return s
}

// decodeRequest decodes a request frame body, interning the name
// through names (nil: copy it).
func decodeRequest(body []byte, names map[string]string) (Request, error) {
	if len(body) < requestHeader {
		return Request{}, fmt.Errorf("wire: request frame %d bytes, want ≥ %d", len(body), requestHeader)
	}
	req := Request{Op: body[0], ID: binary.BigEndian.Uint32(body[1:5])}
	nameLen := int(body[5])
	if len(body) < requestHeader+nameLen {
		return Request{}, fmt.Errorf("wire: request frame %d bytes, header says ≥ %d", len(body), requestHeader+nameLen)
	}
	req.Name = intern(names, body[requestHeader:requestHeader+nameLen])
	trailer := body[requestHeader+nameLen:]
	switch req.Op {
	case OpHello:
		if len(trailer) != 4 {
			return Request{}, fmt.Errorf("wire: HELLO trailer %d bytes, want 4", len(trailer))
		}
		req.Version = binary.BigEndian.Uint32(trailer)
	case OpAcquire, OpTryAcquire:
		switch len(trailer) {
		case 0:
		case 4:
			req.TTLMillis = binary.BigEndian.Uint32(trailer)
		case 8:
			req.TTLMillis = binary.BigEndian.Uint32(trailer)
			req.WaitMillis = binary.BigEndian.Uint32(trailer[4:])
		default:
			return Request{}, fmt.Errorf("wire: %s trailer %d bytes, want 0, 4 or 8", OpName(req.Op), len(trailer))
		}
	case OpElectEpoch:
		switch len(trailer) {
		case 0:
		case 4:
			req.WaitMillis = binary.BigEndian.Uint32(trailer)
		default:
			return Request{}, fmt.Errorf("wire: ELECTEPOCH trailer %d bytes, want 0 or 4", len(trailer))
		}
	case OpRelease:
		switch len(trailer) {
		case 0:
		case 8:
			req.Token = binary.BigEndian.Uint64(trailer)
		default:
			return Request{}, fmt.Errorf("wire: RELEASE trailer %d bytes, want 0 or 8", len(trailer))
		}
	case OpElectReset:
		switch len(trailer) {
		case 8:
			req.Epoch = binary.BigEndian.Uint64(trailer)
		case 12:
			req.Epoch = binary.BigEndian.Uint64(trailer)
			req.WaitMillis = binary.BigEndian.Uint32(trailer[8:])
		default:
			return Request{}, fmt.Errorf("wire: ELECTRESET trailer %d bytes, want 8 or 12", len(trailer))
		}
	case OpExtend:
		if len(trailer) != 12 {
			return Request{}, fmt.Errorf("wire: EXTEND trailer %d bytes, want 12", len(trailer))
		}
		req.Token = binary.BigEndian.Uint64(trailer)
		req.TTLMillis = binary.BigEndian.Uint32(trailer[8:])
		if req.Token == 0 || req.TTLMillis == 0 {
			return Request{}, errors.New("wire: EXTEND requires a fencing token and a positive TTL")
		}
	default:
		if len(trailer) != 0 {
			return Request{}, fmt.Errorf("wire: %s frame carries an unexpected %d-byte trailer", OpName(req.Op), len(trailer))
		}
	}
	return req, nil
}

// decodeResponse decodes a response frame body. The payload aliases
// body.
func decodeResponse(body []byte) (Response, error) {
	if len(body) < responseHeader {
		return Response{}, fmt.Errorf("wire: response frame %d bytes, want ≥ %d", len(body), responseHeader)
	}
	return Response{
		Status:  body[0],
		ID:      binary.BigEndian.Uint32(body[1:5]),
		Payload: body[responseHeader:],
	}, nil
}

// TokenPayload encodes a fencing token (or an epoch, or a negotiated
// fence of any kind) as a response payload.
func TokenPayload(tok uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], tok)
	return b[:]
}

// ParseTokenPayload decodes a u64 payload; ok is false for any other
// shape (including the empty payload).
func ParseTokenPayload(p []byte) (tok uint64, ok bool) {
	if len(p) != 8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(p), true
}

// ElectPayload encodes an ELECTEPOCH answer: leadership plus the epoch
// participated in.
func ElectPayload(leader bool, epoch uint64) []byte {
	b := make([]byte, 9)
	if leader {
		b[0] = ElectLeader
	}
	binary.BigEndian.PutUint64(b[1:], epoch)
	return b
}

// ParseElectPayload decodes an ELECTEPOCH answer; ok is false for any
// other shape.
func ParseElectPayload(p []byte) (leader bool, epoch uint64, ok bool) {
	if len(p) != 9 {
		return false, 0, false
	}
	return p[0] == ElectLeader, binary.BigEndian.Uint64(p[1:]), true
}

// BusyPayload encodes a shed answer: the server's suggested retry
// delay in milliseconds (0 means no suggestion, encoded empty like a
// probe-loss BUSY).
func BusyPayload(retryAfterMillis uint32) []byte {
	if retryAfterMillis == 0 {
		return nil
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], retryAfterMillis)
	return b[:]
}

// ParseBusyPayload decodes a BUSY payload. The empty payload (a probe
// loss, or a shed with no suggestion) decodes as (0, true); any shape
// other than empty or u32 is rejected.
func ParseBusyPayload(p []byte) (retryAfterMillis uint32, ok bool) {
	switch len(p) {
	case 0:
		return 0, true
	case 4:
		return binary.BigEndian.Uint32(p), true
	default:
		return 0, false
	}
}

// HelloPayload encodes the version a HELLO answer reports.
func HelloPayload(version uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], version)
	return b[:]
}

// ParseHelloPayload decodes a HELLO answer.
func ParseHelloPayload(p []byte) (version uint32, ok bool) {
	if len(p) != 4 {
		return 0, false
	}
	return binary.BigEndian.Uint32(p), true
}

// Stats is the STATS payload, marshalled as JSON. The shapes mirror the
// in-process counters the public randtas API exposes (MutexStats,
// ArenaShardStats, NamedStats) so a dashboard scraping tasd sees the
// same numbers a linked-in consumer would.
type Stats struct {
	// ProtocolVersion is the protocol version the server speaks.
	ProtocolVersion int `json:"protocol_version"`
	// UptimeSeconds since the server started listening.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// ActiveConns and MaxClients describe the connection slots: every
	// connection owns one process id of the arena's N.
	ActiveConns int `json:"active_conns"`
	MaxClients  int `json:"max_clients"`
	// Ops counts processed requests by operation mnemonic.
	Ops map[string]uint64 `json:"ops"`
	// Violations counts server-side mutual-exclusion check failures.
	// Any nonzero value is a bug in the lock service.
	Violations uint64 `json:"violations"`
	// LeaseExpirations counts leases the server expired (holders fenced).
	LeaseExpirations uint64 `json:"lease_expirations"`
	// Aborts sums, across all locks, acquisitions resolved by the abort
	// protocol (drains and dead peers cancelling blocked waiters).
	Aborts uint64 `json:"aborts,omitempty"`
	// Recovered sums, across all locks, winnerless rounds (every
	// participant aborted) recycled by the arena's abort recovery.
	Recovered uint64 `json:"recovered,omitempty"`
	// Evictions counts named locks retired by the registry's idle
	// eviction.
	Evictions uint64 `json:"evictions,omitempty"`
	// Shed counts ACQUIREs refused by admission control (per-lock wait
	// queue full or global in-flight budget exhausted) with BUSY.
	Shed uint64 `json:"shed,omitempty"`
	// DeadlineExpired counts ACQUIREs whose propagated client deadline
	// (waitMs) expired while waiting; the wait was aborted through the
	// elector and answered BUSY.
	DeadlineExpired uint64 `json:"deadline_expired,omitempty"`
	// SlowClientEvictions counts connections dropped because the peer
	// stopped draining responses and a flush exceeded the write timeout.
	SlowClientEvictions uint64 `json:"slow_client_evictions,omitempty"`
	// QueueDepthHighWater is the deepest admitted per-lock wait queue
	// observed; InflightHighWater the peak global in-flight admitted
	// ACQUIREs. Both are ≤ the configured bounds when admission control
	// is on, by construction.
	QueueDepthHighWater int64 `json:"queue_depth_high_water,omitempty"`
	InflightHighWater   int64 `json:"inflight_high_water,omitempty"`
	// MaxWaiters / MaxInflight echo the admission-control configuration
	// (0: unbounded).
	MaxWaiters  int `json:"max_waiters,omitempty"`
	MaxInflight int `json:"max_inflight,omitempty"`
	// Truncated is set when the per-name lists below were cut short so
	// the snapshot fits in one response frame; the scalar counters
	// above are always complete.
	Truncated bool `json:"truncated,omitempty"`
	// Locks are the per-name mutex counters, sorted by name.
	Locks []LockStats `json:"locks"`
	// Elections are the named elections, sorted by name.
	Elections []ElectionStats `json:"elections"`
	// Arena sums the slot-pool counters across shards.
	Arena ArenaStats `json:"arena"`
}

// LockStats is one named lock's counters.
type LockStats struct {
	Name string `json:"name"`
	// Rounds is the number of completed acquire/release cycles.
	Rounds uint64 `json:"rounds"`
	// Contended counts blocking acquires that lost a TAS round.
	Contended uint64 `json:"contended"`
	// ProbeLosses counts failed TRYACQUIRE probes.
	ProbeLosses uint64 `json:"probe_losses"`
	// Expirations counts lease expiries enforced on this lock.
	Expirations uint64 `json:"expirations,omitempty"`
	// Aborts counts acquisitions of this lock resolved by the abort
	// protocol: the waiter was cancelled (drain, dead peer, context)
	// and its election resolved to a loss.
	Aborts uint64 `json:"aborts,omitempty"`
	// Recovered counts winnerless rounds of this lock recycled by abort
	// recovery.
	Recovered uint64 `json:"recovered,omitempty"`
	// HolderToken is the current holder's fencing token (0 when free) —
	// what a downstream resource fences stale writers against.
	HolderToken uint64 `json:"holder_token,omitempty"`
	// Evictions counts prior incarnations of this name retired idle.
	Evictions uint64 `json:"evictions,omitempty"`
}

// ElectionStats is one named election's standing.
type ElectionStats struct {
	Name string `json:"name"`
	// Epoch is the current epoch (counted from 1); Resets the number of
	// completed epoch bumps.
	Epoch  uint64 `json:"epoch"`
	Resets uint64 `json:"resets,omitempty"`
	// Decided is true once some client won the current epoch.
	Decided bool `json:"decided"`
	// WinnerConn is the connection slot of the current epoch's winner
	// (meaningful only when Decided).
	WinnerConn int `json:"winner_conn,omitempty"`
}

// ArenaStats sums the arena's per-shard pool counters.
type ArenaStats struct {
	Hits      uint64 `json:"hits"`
	Steals    uint64 `json:"steals"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Slots     uint64 `json:"slots"`
	Registers uint64 `json:"registers"`
}
