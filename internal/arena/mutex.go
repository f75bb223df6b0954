// TAS-chaining mutex: a long-lived lock built from one-shot TAS rounds,
// with fencing tokens.
//
// The lock's state is a pointer to the current *round*, which is one
// arena slot. Locking means "win the current round's TAS"; unlocking
// means "acquire a fresh slot, install it as the next round, and retire
// the old one". Exactly one process ever receives 0 from a round's TAS,
// and the next round exists only after the previous one is handed over,
// so mutual exclusion follows directly from the one-shot TAS property.
//
// # Fencing tokens
//
// Every successful acquisition returns the winning round's sequence
// number as a fencing Token. Rounds are installed with strictly
// increasing sequence numbers — by the holder's Unlock, by Revoke (lease
// enforcement force-installing the successor over a hung holder), and by
// Retire (eviction) alike — so tokens are strictly monotone over the
// lock's whole history: a downstream resource that remembers the largest
// token it has seen can reject any stale writer, and Unlock verifies its
// token so a revoked holder's release reports ErrFenced instead of
// corrupting the chain.
//
// # The gate word
//
// Win, release, revocation and retirement race each other; a single
// atomic "gate" word serializes their decisions:
//
//	0        the lock is free (no decided winner for the current round)
//	t        the holder of token t has the lock
//	retired  the mutex is retired (evicted); no further acquisitions
//
// A process that wins a round's TAS publishes its claim with
// gate.CAS(0→t); if that fails the mutex was retired while the TAS was
// in flight and the win is discarded (safe: the round is closed, no
// successor will ever be granted from it). Unlock and Revoke both start
// with gate.CAS(t→0), so exactly one of them performs the handover; the
// loser observes ErrFenced / false. Retire starts with gate.CAS(0→retired),
// which can only succeed while no winner is decided, and any in-flight
// winner then fails its own claim CAS. The invariant behind the claim
// CAS: whenever a round is winnable, the gate is 0 or retired, because
// every path that installs a successor clears the gate first.
//
// # Recycling
//
// A round lives inside its slot: the slot's state word, its 64-bit seq
// (the fencing token) and its owner mutex are the round, and the slot's
// incarnation — from the Get that opens it to the Put that recycles it —
// is the round's lifetime. A handover therefore allocates nothing. The
// state word packs, in one atomic uint64,
//
//	bits 32..63  incarnation tag, bumped each time the slot opens
//	bit  28      open: the round may be entered (clear = closed)
//	bits 29..31  aborted, recovering, gateHeld (abort recovery below)
//	bits  0..27  refs: processes inside the round
//
// A process enters a round by pinning it — one CAS that adds a ref only
// if the word is open — and leaves by dropping the ref. Whoever installs
// a successor closes the old round (clears open), and whoever leaves the
// word closed with zero refs — the closer itself, or the round's last
// straggler — is the round's unique reaper: it recycles the slot with
// Arena.Put. Closing and leaving both go through that one step, so no
// path can close a drained round without recycling it. A closed word
// refuses every pin, and a free slot stays closed until its next
// installer opens it, so no process can enter a round once it may be
// recycled, and Put never resets registers under a process.
//
// The subtle part is that a waiter's pointer to the current round can go
// stale: between loading m.cur and pinning, the round may be superseded,
// reaped and its slot handed out again — as the next round of this mutex
// or of another mutex on the same arena (a Registry shares one arena
// across all its names), where a TAS under this proc's id could collide
// with that mutex's own proc of the same id. Entry is therefore:
//
//  1. load s = m.cur and its seq;
//  2. pin s's incarnation — the tag in the CAS'd word makes the pin land
//     on the incarnation whose open word was observed, the same argument
//     as the free list's packed {tag, index} head;
//  3. re-validate m.cur == s and s.seq == seq before touching a
//     register. A pinned incarnation cannot be reaped, and a slot is
//     installed at most once per incarnation, so m.cur == s after the
//     pin means the pinned incarnation is this mutex's current round;
//     the seq check rejects a slot recycled back into the same mutex as
//     a later round. On a mismatch the waiter leaves and reloads.
//
// The unpublished successor is the other ABA case: an installer opens
// its fresh slot before the install CAS, so a stale waiter may pin it
// (and fail validation) before it is published. A successor that loses
// its install CAS is therefore closed and reaped like any other round,
// never Put directly — the stale waiter's leave recycles it if it is
// the last one out. Revoke, which acts on m.cur without holding the
// round, pins it too, so its install CAS cannot land on a later
// incarnation of the same slot.
//
// # Abort recovery
//
// An aborted participant loses without implying a winner, so a round
// can end winnerless. The aborted flag records that some participant
// aborted; the last process to leave an open round with the flag set
// sets the recovering flag with a CAS in place of dropping its ref and,
// still pinned, recovers the round in place of the winner that never was
// (Mutex.recoverRound). The trigger is one CAS on the word, so it fires
// exactly once per incarnation, and it fires for the round's owner even
// when the last one out is a stale waiter from another mutex.
package arena

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/concurrent"
)

// Lock-ownership errors. They are re-exported by the public randtas
// package and mapped onto wire statuses by the tasd server.
var (
	// ErrFenced reports a release that lost to a revocation: the lease
	// expired (or the lock was retired) and the successor round was
	// force-installed, so the caller's token no longer owns the lock.
	ErrFenced = errors.New("arena: fencing token superseded (lease expired or lock revoked)")
	// ErrNotHeld reports an Unlock by a proc that holds nothing.
	ErrNotHeld = errors.New("arena: unlock of a mutex this proc does not hold")
	// ErrBadToken reports an Unlock whose token does not match the round
	// the proc holds — a stale token from an earlier acquisition.
	ErrBadToken = errors.New("arena: unlock token does not match the held round")
	// ErrRetired reports an acquisition attempt on a retired (evicted)
	// mutex; look the name up again to get its successor.
	ErrRetired = errors.New("arena: mutex retired (evicted from its registry)")
	// ErrAborted reports a Lock(nil) cut short by MutexProc.Abort — an
	// external cancellation with no context to carry the cause.
	ErrAborted = errors.New("arena: lock acquisition aborted")
)

// retiredGate is the gate-word sentinel for a retired mutex. Tokens are
// round sequence numbers counted from 1, so the sentinel is unreachable
// as a real token.
const retiredGate = math.MaxUint64

// Round state word layout; see "Recycling" above.
const (
	stRefs       = 1<<28 - 1 // refs: processes inside the round
	stOpen       = 1 << 28   // the round may be entered
	stAborted    = 1 << 29   // some participant's TAS resolved by abort
	stRecovering = 1 << 30   // abort recovery's exactly-once ticket taken
	stGateHeld   = 1 << 31   // recovery holds the gate until the reap
	stTagOne     = 1 << 32   // one incarnation-tag increment
)

// Mutex is a long-lived mutual-exclusion lock chained from one-shot TAS
// rounds drawn from an Arena. Create one with NewMutex; each goroutine
// interacts through its own MutexProc.
type Mutex struct {
	arena *Arena
	cur   atomic.Pointer[Slot]
	gate  atomic.Uint64 // 0 free | token held | retiredGate

	rounds      atomic.Uint64 // completed Lock/Unlock cycles
	contended   atomic.Uint64 // blocking Lock attempts that lost a round's TAS
	probeLosses atomic.Uint64 // failed nonblocking TryLock probes
	expirations atomic.Uint64 // revocations (lease expiries enforced via Revoke)
	aborts      atomic.Uint64 // acquisitions resolved by abort (a loss, by protocol)
	recovered   atomic.Uint64 // winnerless rounds recycled by abort recovery
}

// NewMutex builds a mutex on a, drawing its first round's slot from
// shard 0.
func NewMutex(a *Arena) *Mutex {
	m := &Mutex{arena: a}
	m.cur.Store(m.newRound(0, 1))
	return m
}

// newRound draws a pristine slot and opens it as round seq of m. Until
// it is installed in m.cur the round is unpublished, but a stale waiter
// may already pin it, so a caller that fails to install it must close
// it rather than Put it.
func (m *Mutex) newRound(hint int, seq uint64) *Slot {
	s := m.arena.Get(hint)
	s.owner = m
	s.seq.Store(seq)
	// A free slot is closed with no refs, so nobody else writes the word:
	// bump the tag, clear the flags, open.
	s.state.Store(s.state.Load()&^(stTagOne-1) + stTagOne | stOpen)
	return s
}

// pin takes a reference on the slot's current incarnation if it is an
// open round. It fails, touching nothing, on a closed one — superseded,
// free, or a tombstone.
func (s *Slot) pin() bool {
	for {
		w := s.state.Load()
		if w&stOpen == 0 {
			return false
		}
		if s.state.CompareAndSwap(w, w+1) {
			return true
		}
	}
}

// setFlag sets a flag bit of a round the caller holds pinned. (A
// Load/CompareAndSwap loop rather than atomic Or: see the go1.24
// intrinsic bug noted in internal/server.)
func (s *Slot) setFlag(f uint64) {
	for {
		w := s.state.Load()
		if s.state.CompareAndSwap(w, w|f) {
			return
		}
	}
}

// leave drops one reference. Leaving a closed round with the last
// reference makes the caller its reaper. Being the last one out of an
// open round that saw an abort is the winnerless-round trigger: no
// participant is left inside and nobody holds the round, so no winner
// exists to install a successor — the leaver, still pinned, takes the
// recovering ticket and recovers the round for its owner (which need
// not be the caller's mutex, if the caller's pointer was stale).
func (s *Slot) leave() {
	for {
		w := s.state.Load()
		if w&(stRefs|stOpen|stAborted|stRecovering) == 1|stOpen|stAborted {
			if s.state.CompareAndSwap(w, w|stRecovering) {
				s.owner.recoverRound(s)
			}
			continue
		}
		if s.state.CompareAndSwap(w, w-1) {
			if w&(stRefs|stOpen) == 1 {
				s.reap(w)
			}
			return
		}
	}
}

// close closes the round once its successor is installed (or, for an
// unpublished successor, once its install failed); if nobody is inside,
// the closer is the reaper. Exactly one caller closes each incarnation —
// whoever moved m.cur off it, or the installer that failed to publish it.
func (s *Slot) close() {
	for {
		w := s.state.Load()
		if s.state.CompareAndSwap(w, w&^stOpen) {
			if w&stRefs == 0 {
				s.reap(w)
			}
			return
		}
	}
}

// reap recycles a closed round that nobody is inside; w is its final
// state word. The caller is the round's unique reaper: the word reached
// closed-with-zero-refs exactly once, and no pin succeeds on a closed
// word. If abort recovery deferred its gate release to the round's last
// straggler, the release happens here, now that every claim of the
// round has been decided.
func (s *Slot) reap(w uint64) {
	m := s.owner
	s.owner = nil
	if w&stGateHeld != 0 {
		m.gate.CompareAndSwap(s.seq.Load(), 0)
	}
	m.arena.Put(s)
}

// Arena returns the arena backing this mutex.
func (m *Mutex) Arena() *Arena { return m.arena }

// Holder returns the fencing token of the current holder, or 0 when the
// lock is free (or retired). It is an advisory snapshot: by the time the
// caller acts on it the lock may have changed hands, but tokens are
// strictly monotone, so a resource that admits writes only from the
// largest token it has ever seen is always safe.
func (m *Mutex) Holder() uint64 {
	g := m.gate.Load()
	if g == retiredGate {
		return 0
	}
	return g
}

// Retired reports whether the mutex has been retired (evicted).
func (m *Mutex) Retired() bool { return m.gate.Load() == retiredGate }

// Revoke forcibly releases the holder of token tok: it installs the
// successor round so waiters can proceed, and the zombie holder's own
// eventual Unlock(tok) reports ErrFenced. It returns false when tok no
// longer holds the lock (already released, already revoked, or never
// granted). This is the lease-enforcement hook: a lock service that
// granted tok with a TTL calls Revoke when the TTL expires.
//
// The revoked round's slot is recycled only after the zombie's Unlock
// (or its proc's teardown) drops the winner's reference — until then the
// zombie may still legally read the round's registers.
func (m *Mutex) Revoke(tok uint64) bool {
	if tok == 0 || tok == retiredGate || !m.gate.CompareAndSwap(tok, 0) {
		return false
	}
	// The gate CAS makes us the unique releaser of round tok: the holder
	// observed-or-will-observe its own gate CAS fail. Pin the current
	// round so its incarnation cannot be recycled under the install CAS,
	// then install the successor unless a concurrent Retire got the
	// (momentarily free) lock first.
	s := m.cur.Load()
	if !s.pin() {
		return true // Retire raced in and already moved the chain on
	}
	if s.seq.Load() == tok {
		next := m.newRound(0, tok+1)
		if m.cur.CompareAndSwap(s, next) {
			s.close()
			m.expirations.Add(1)
		} else {
			next.close()
		}
	}
	// If the zombie's fenced Unlock already dropped the winner's
	// reference, this leave is the last one out and recycles the slot.
	s.leave()
	return true
}

// Retire permanently closes the mutex for its registry's eviction path:
// no further acquisition can succeed (ErrRetired), and the final round's
// slot returns to the arena once stragglers drain. It returns false if
// the lock is currently held (or already retired); the caller should
// treat the name as active and skip it.
func (m *Mutex) Retire() bool {
	if !m.gate.CompareAndSwap(0, retiredGate) {
		return false
	}
	// No winner can be decided from here on (claim CASes fail against
	// the sentinel), and no release/revoke can run (they need gate ==
	// token), so only a release that already cleared the gate can still
	// be installing a successor — loop until our tombstone lands. The
	// tombstone is a slot-less round whose zero state word is closed, so
	// nobody can ever enter it. (It is the one round that allocates:
	// eviction is not the handover path.)
	tomb := &Slot{}
	for {
		s := m.cur.Load()
		tomb.seq.Store(s.seq.Load() + 1)
		if m.cur.CompareAndSwap(s, tomb) {
			s.close()
			return true
		}
	}
}

// MutexStats is a snapshot of a mutex's counters.
type MutexStats struct {
	// Rounds is the number of completed Lock/Unlock cycles.
	Rounds uint64
	// Contended counts blocking Lock attempts that entered a round and
	// lost its TAS — real lock contention.
	Contended uint64
	// ProbeLosses counts failed nonblocking TryLock calls. They are kept
	// out of Contended so that throughput reports do not conflate
	// polling with processes genuinely waiting for the lock.
	ProbeLosses uint64
	// Expirations counts forced handovers via Revoke — lease expiries
	// enforced against hung holders.
	Expirations uint64
	// Aborts counts acquisitions that resolved by abort: a cancelled
	// context, a server drain, or an explicit MutexProc.Abort cut the
	// attempt short and it was accounted as a loss.
	Aborts uint64
	// Recovered counts winnerless rounds recycled by abort recovery:
	// every live participant of the round aborted, so no winner existed
	// to install a successor and the mutex recycled the round itself.
	Recovered uint64
}

// Stats snapshots the mutex counters.
func (m *Mutex) Stats() MutexStats {
	return MutexStats{
		Rounds:      m.rounds.Load(),
		Contended:   m.contended.Load(),
		ProbeLosses: m.probeLosses.Load(),
		Expirations: m.expirations.Load(),
		Aborts:      m.aborts.Load(),
		Recovered:   m.recovered.Load(),
	}
}

// Proc creates the per-goroutine access point for process id, stepping
// through h. ids must be unique among concurrent users and in [0, N) of
// the backing arena; h must be used by this MutexProc only.
func (m *Mutex) Proc(id int, h *concurrent.Handle) *MutexProc {
	if id < 0 || id >= m.arena.N() {
		panic("arena: mutex proc id out of range of the backing arena's N")
	}
	return &MutexProc{m: m, h: h, id: id, wake: make(chan struct{}, 1)}
}

// MutexProc is one goroutine's handle on a Mutex. It is confined to a
// single goroutine, like every shm.Handle — with one exception: Abort
// may be called from any goroutine.
type MutexProc struct {
	m     *Mutex
	h     *concurrent.Handle
	id    int
	last  uint64        // seq of the round already attempted (one TAS per round)
	held  *Slot         // the won round, pinned until Unlock
	wake  chan struct{} // capacity 1; Abort's kick out of a park
	parkT *time.Timer   // reused across parks; owned by this goroutine
}

// Steps reports the cumulative shared-memory steps this proc has taken
// across all rounds — the monotone step accounting of the underlying
// handle.
func (p *MutexProc) Steps() int { return p.h.Steps() }

// CCRMRs reports the cumulative cache-coherent-model remote memory
// references of the underlying handle. Always zero unless the backing
// arena was built with Config.CountRMRs.
func (p *MutexProc) CCRMRs() int { return p.h.CCRMRs() }

// DSMRMRs is CCRMRs for the distributed-shared-memory cost model.
func (p *MutexProc) DSMRMRs() int { return p.h.DSMRMRs() }

// Token returns the fencing token this proc currently holds, or 0 when
// it does not hold the mutex.
func (p *MutexProc) Token() uint64 {
	if p.held == nil {
		return 0
	}
	return p.held.seq.Load()
}

// Lock acquires the mutex, blocking until this proc wins a round or ctx
// is done. On success it returns the round's fencing token. A nil ctx
// blocks until the mutex is acquired, retired, or externally aborted.
//
// Cancellation is abortive: ctx arms an abort on the proc's handle
// (context.AfterFunc), so a cancel lands mid-election — at the next
// spin point of the abortable elector or the next bounded park — not
// merely between rounds. A cancelled Lock leaves no residue: if the
// proc turns out to have won the race against its own cancellation, the
// round is released before returning ctx.Err().
func (p *MutexProc) Lock(ctx context.Context) (uint64, error) {
	for {
		var stop func() bool
		var unwatch func() bool
		if ctx != nil && ctx.Done() != nil {
			stop = func() bool { return ctx.Err() != nil }
			unwatch = context.AfterFunc(ctx, p.Abort)
		}
		tok, ok := p.LockWhile(stop)
		if unwatch != nil && !unwatch() {
			// The abort callback already ran; its flag (if the win beat
			// it) must not leak into the next acquisition.
			p.h.ClearAbort()
		}
		if ok {
			if ctx != nil && ctx.Err() != nil {
				// Won the race against our own cancellation: undo it.
				_ = p.Unlock(tok)
				return 0, ctx.Err()
			}
			return tok, nil
		}
		if p.m.Retired() {
			return 0, ErrRetired
		}
		if ctx == nil {
			return 0, ErrAborted // external Abort is the only way out
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		// A stale abort from an earlier episode (LockWhile consumed it):
		// our context is still live, so re-enter.
	}
}

// LockWhile acquires like Lock but gives up when stop reports true,
// returning the fencing token and whether the mutex was acquired. stop
// is polled only while waiting for a round transition, never on the
// uncontended path. A lock service uses this to keep blocked waiters
// drainable and to abort waiters whose clients have hung up — wait
// conditions a context cannot express.
//
// An Abort (from any goroutine) also ends the wait: it is observed at
// the elector's spin points and around every park, and LockWhile
// consumes the abort flag on the way out, so one Abort cancels at most
// one acquisition. Cancellation latency is hard-bounded: a parked
// waiter sleeps at most maxParkInterval before re-checking stop, and an
// Abort wakes the park immediately.
func (p *MutexProc) LockWhile(stop func() bool) (uint64, bool) {
	if p.held != nil {
		panic("arena: Lock on a MutexProc that already holds the mutex")
	}
	spins := 0
	for {
		if p.m.Retired() {
			return 0, false
		}
		if p.h.Aborting() {
			// Aborted between rounds (parked, or before entering one):
			// no election state to unwind, so only the mutex-level
			// counter moves — the round-level aborts counter is
			// reserved for mid-election departures, the ones that can
			// leave a round winnerless.
			p.h.ClearAbort()
			p.m.aborts.Add(1)
			return 0, false
		}
		s := p.m.cur.Load()
		seq := s.seq.Load()
		if seq == p.last {
			// Already lost this round; one TAS per round per proc, so
			// wait for the holder to install the next round.
			if stop != nil && stop() {
				return 0, false
			}
			p.park(&spins)
			continue
		}
		spins = 0
		won, aborted := p.tryRound(s, seq, true)
		if won {
			return seq, true
		}
		if aborted {
			p.h.ClearAbort()
			return 0, false
		}
	}
}

// Abort asks this proc's in-flight acquisition to give up. Unlike every
// other MutexProc method it is safe to call from any goroutine: it is
// the crossing point through which a context callback, a lease sweep or
// a server drain reaches a waiter that is parked or mid-election. The
// abort resolves as a loss at the proc's next spin or park point; it is
// consumed by the acquisition it cancels (or, if none is in flight, by
// the next one). Aborting a proc that currently holds the mutex does
// not release the lock — it only cuts short a future acquisition, which
// Lock treats as stale and retries.
func (p *MutexProc) Abort() {
	p.h.Abort()
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// TryLock makes one attempt at the current round and returns the fencing
// token and whether it acquired the mutex. It never blocks; a false
// return means some other proc holds (or just won) the lock, or the
// mutex is retired. Failed probes are counted in MutexStats.ProbeLosses,
// not Contended.
func (p *MutexProc) TryLock() (uint64, bool) {
	if p.held != nil {
		panic("arena: TryLock on a MutexProc that already holds the mutex")
	}
	s := p.m.cur.Load()
	seq := s.seq.Load()
	if seq == p.last {
		p.m.probeLosses.Add(1)
		return 0, false
	}
	won, _ := p.tryRound(s, seq, false)
	if !won {
		p.m.probeLosses.Add(1)
		return 0, false
	}
	return seq, true
}

// tryRound enters round s, observed as m.cur with sequence number seq,
// runs its TAS once, and returns (won, aborted). On a win the round's
// reference is kept until Unlock; on a loss, abort, closed round or
// stale pointer it is released. blocking distinguishes a Lock attempt (a
// loss is real contention) from a TryLock probe (the caller accounts for
// it).
func (p *MutexProc) tryRound(s *Slot, seq uint64, blocking bool) (bool, bool) {
	if !s.pin() {
		// Round already closed; the slot may be reset any moment. Do not
		// touch its registers.
		return false, false
	}
	if p.m.cur.Load() != s || s.seq.Load() != seq {
		// The pointer went stale before the pin: the pinned incarnation
		// is a later round of this mutex, another mutex's round, or an
		// unpublished successor. Entering would be a TAS on the wrong
		// round (possibly under another proc's id); reload instead.
		s.leave()
		return false, false
	}
	p.last = seq
	// Devirtualized steps, and (unless the arena was built NoDoorway)
	// the constant-step uncontended doorway. The abortable variant is
	// step-identical when no abort lands and falls back to running to
	// completion when the elector offers no abort protocol.
	v, aborted := s.Obj.TASFastAbortable(p.h)
	if v == 0 {
		// Claim the gate. The CAS can fail because the mutex was retired
		// while our TAS was in flight, because an abort recovery of this
		// round holds the gate, or because the round was already
		// superseded — in each case a successor (or the tombstone) is
		// guaranteed by whoever owns the gate, so the win is safely
		// discarded as a loss. A gate transiently held by an *earlier*
		// round's deferred recovery clears as soon as that round's last
		// straggler leaves; spin it out.
		for {
			if p.m.gate.CompareAndSwap(0, seq) {
				p.held = s // keep our reference until Unlock
				return true, false
			}
			g := p.m.gate.Load()
			if g == retiredGate || s.state.Load()&stRecovering != 0 || p.m.cur.Load() != s {
				break
			}
			runtime.Gosched()
		}
		s.leave()
		return false, false
	}
	if aborted {
		// An abort is a loss that implies no winner: flag it on the round
		// before leaving so that the last one out can tell a
		// possibly-winnerless round from a merely quiet one.
		s.setFlag(stAborted)
		p.m.aborts.Add(1)
		s.leave()
		return false, true
	}
	if blocking {
		p.m.contended.Add(1)
	}
	s.leave()
	return false, false
}

// Unlock releases the mutex if tok still owns it: install a fresh round
// for the waiters, then close the old one, recycling its slot once the
// last straggler leaves. A token that was revoked out from under the
// holder (lease expiry, retirement) reports ErrFenced — the proc's state
// is cleaned up either way, so the caller may lock again afterwards.
func (p *MutexProc) Unlock(tok uint64) error {
	s := p.held
	if s == nil {
		return ErrNotHeld
	}
	if tok != s.seq.Load() {
		return ErrBadToken
	}
	p.held = nil
	if !p.m.gate.CompareAndSwap(tok, 0) {
		// Revoke (or Retire-after-revoke) won the gate: the successor is
		// theirs to install. Drop the winner's reference so the revoked
		// round's slot can recycle.
		s.leave()
		return ErrFenced
	}
	next := p.m.newRound(p.id, tok+1)
	if p.m.cur.CompareAndSwap(s, next) {
		s.close()
	} else {
		// A Retire slipped between our gate clear and the install and
		// moved the chain on (closing s); the release itself still
		// succeeded.
		next.close()
	}
	s.leave() // release the winner's reference taken at Lock
	p.m.rounds.Add(1)
	return nil
}

// recoverRound recovers a round that may have ended winnerless: the
// caller, still pinned, was the last one out of the open round s and
// some participant aborted. Every acquisition of the round has resolved
// (a claim happens before the claimant's leave), so if the gate is still
// unclaimed there is no winner and never will be one — recovery stands
// in for the winner that never was: it pseudo-claims the gate (which
// atomically excludes Retire and discards any late entrant's win),
// installs the successor round, and closes s. The gate stays held until
// s is reaped — by the caller's own leave, or by the last late entrant's
// — so that no late entrant of s can claim it after the successor is
// installed.
//
// The net slot accounting is exactly an Unlock's: one Get for the
// successor, one Put of the recovered slot — a fully-aborted round
// consumes nothing from the pool and waiters never see a stuck chain.
func (m *Mutex) recoverRound(s *Slot) {
	seq := s.seq.Load()
	for !m.gate.CompareAndSwap(0, seq) {
		// Not winnerless after all if a late entrant won and claimed
		// (its Unlock installs the successor), or the mutex was retired
		// (the tombstone is the successor). Any other holder is
		// transient — an earlier round's recovery waiting out its
		// stragglers, or a recovery of a superseded round about to back
		// off — and giving up here would spend this round's only
		// recovering ticket and wedge the chain, so wait it out as the
		// claim loop does.
		if g := m.gate.Load(); g == seq || g == retiredGate || m.cur.Load() != s {
			return
		}
		runtime.Gosched()
	}
	if m.cur.Load() != s {
		// The chain already moved past s; nothing to recover.
		m.gate.CompareAndSwap(seq, 0)
		return
	}
	next := m.newRound(0, seq+1)
	if !m.cur.CompareAndSwap(s, next) {
		// Holding the gate excludes every installer but one: a Revoke of
		// s's holder that cleared the gate before that holder's fenced
		// Unlock made it the last one out. That Revoke installed first
		// and closes s; discard our successor.
		next.close()
		m.gate.CompareAndSwap(seq, 0)
		return
	}
	s.setFlag(stGateHeld)
	s.close()
	m.recovered.Add(1)
}

// maxParkInterval is the longest a blocked waiter sleeps between checks
// of its stop predicate — the hard bound on cancellation latency for
// stop-based waiters (an Abort additionally wakes the park immediately
// via the proc's wake channel).
const maxParkInterval = 10 * time.Microsecond

// park spins politely: yield the processor for a while, then sleep in
// bounded intervals so heavily oversubscribed workloads don't burn whole
// cores waiting for a round change. The sleep is interruptible by
// Abort and never exceeds maxParkInterval, so a waiter re-checks its
// stop predicate within a bounded delay of it flipping true.
func (p *MutexProc) park(spins *int) {
	*spins++
	if *spins < 32 {
		runtime.Gosched()
		return
	}
	// The timer is reused across parks (a fresh one per park allocates
	// on the contended path); it is safe to Reset because every exit
	// below leaves it stopped-and-drained.
	if p.parkT == nil {
		p.parkT = time.NewTimer(maxParkInterval)
	} else {
		p.parkT.Reset(maxParkInterval)
	}
	select {
	case <-p.wake:
		if !p.parkT.Stop() {
			<-p.parkT.C
		}
	case <-p.parkT.C:
	}
}
