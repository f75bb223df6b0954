package arena

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/concurrent"
	"repro/internal/tas"
)

// TestRevokeRecyclesWhenZombieLeavesFirst drives the interleaving where
// the revoked holder's fenced Unlock drops the winner's reference after
// Revoke's gate CAS but before Revoke closes the round. Revoke's
// successor Get misses the empty pool, so the arena builds a slot and
// calls the factory mid-Revoke; the factory runs the zombie's Unlock
// right there. The revoked round's slot must still be recycled: at rest
// the mutex pins exactly its current round.
func TestRevokeRecyclesWhenZombieLeavesFirst(t *testing.T) {
	var zombie func()
	factory := func(s *concurrent.Space, n int) tas.LeaderElector {
		if f := zombie; f != nil {
			zombie = nil
			f()
		}
		return logStarFactory(s, n)
	}
	a := newTestArena(t, Config{N: 2, Shards: 1, Prealloc: 1, Factory: factory})
	m := NewMutex(a)
	p := proc(m, 0)
	tok := lock(t, p)
	zombie = func() {
		if err := p.Unlock(tok); !errors.Is(err, ErrFenced) {
			t.Errorf("zombie Unlock mid-Revoke = %v, want ErrFenced", err)
		}
	}
	if !m.Revoke(tok) {
		t.Fatal("Revoke of the held token failed")
	}
	if zombie != nil {
		t.Fatal("Revoke's successor Get did not miss; the interleaving was not driven")
	}
	if got := outstandingSlots(a); got != 1 {
		t.Fatalf("outstanding slots = %d after Revoke, want 1 (revoked round leaked)", got)
	}
	unlock(t, p, lock(t, p))
	if got := outstandingSlots(a); got != 1 {
		t.Fatalf("outstanding slots = %d at rest, want 1", got)
	}
}

// TestHandoverAllocatesNothing: a round lives in its recycled slot, so
// once the pool is warm no acquisition or handover path allocates —
// clean release, probe, and revocation with the zombie's fenced release.
func TestHandoverAllocatesNothing(t *testing.T) {
	m := newTestMutex(t, 2)
	p := proc(m, 0)
	ctx := context.Background()
	cases := []struct {
		name  string
		cycle func()
	}{
		{"Lock+Unlock", func() {
			tok, err := p.Lock(ctx)
			if err != nil {
				t.Fatal(err)
			}
			unlock(t, p, tok)
		}},
		{"TryLock+Unlock", func() {
			tok, ok := p.TryLock()
			if !ok {
				t.Fatal("TryLock on a free mutex failed")
			}
			unlock(t, p, tok)
		}},
		{"Lock+Revoke+fenced Unlock", func() {
			tok, err := p.Lock(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Revoke(tok) {
				t.Fatal("Revoke of the held token failed")
			}
			if err := p.Unlock(tok); !errors.Is(err, ErrFenced) {
				t.Fatalf("Unlock after Revoke = %v, want ErrFenced", err)
			}
		}},
	}
	for _, c := range cases {
		c.cycle() // warm-up: the proc's first round
		if allocs := testing.AllocsPerRun(200, c.cycle); allocs != 0 {
			t.Errorf("%s: %v allocs per cycle, want 0", c.name, allocs)
		}
	}
}

// TestRoundReuseAcrossMutexes is the ABA stress for rounds living in
// recycled slots. Several mutexes share one single-shard arena with a
// one-slot preallocation, so the LIFO free list hands a just-reaped slot
// straight back out — often as the next round of a different mutex,
// whose procs use the same ids. Waiters that loaded m.cur before such a
// recycle hold stale pointers; entering without re-validating would run
// a TAS on the wrong round under a colliding id. Workers mix blocking
// Locks, TryLock probes, revocations with fenced releases, and
// acquisitions cut short by a chaos goroutine's Aborts, plus probes that
// yield between loading m.cur and entering it until the round has moved
// on, so stale pointers are the common case rather than a preemption
// accident. Per mutex the guarded counter must be exact, grants' tokens
// strictly increasing and every release accepted; afterwards every
// mutex must still grant the lock (no chain wedged by a stolen round),
// and at rest each mutex pins exactly one slot.
func TestRoundReuseAcrossMutexes(t *testing.T) {
	const (
		mutexes = 3
		workers = 4 // per mutex; proc ids 0..workers-1 collide across mutexes
		iters   = 300
	)
	a := newTestArena(t, Config{N: workers, Shards: 1, Prealloc: 1})
	type guarded struct {
		m       *Mutex
		procs   []*MutexProc
		counter int    // guarded by m
		lastTok uint64 // guarded by m
		wins    int64  // guarded by m
	}
	gs := make([]*guarded, mutexes)
	for i := range gs {
		g := &guarded{m: NewMutex(a)}
		for id := 0; id < workers; id++ {
			g.procs = append(g.procs, proc(g.m, id))
		}
		gs[i] = g
	}

	stopChaos := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		for i := 0; ; i++ {
			select {
			case <-stopChaos:
				return
			default:
			}
			gs[i%mutexes].procs[i%workers].Abort()
			runtime.Gosched()
		}
	}()

	// Workers report invariant violations and carry on releasing, so a
	// violation cannot also wedge the run.
	var violations atomic.Int64
	violate := func(format string, args ...any) {
		if violations.Add(1) <= 5 {
			t.Errorf(format, args...)
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for mi, g := range gs {
		for id, p := range g.procs {
			wg.Add(1)
			go func(mi int, g *guarded, p *MutexProc, id int) {
				defer wg.Done()
				<-start
				for i := 0; i < iters; i++ {
					var tok uint64
					var ok bool
					switch (id + i) % 4 {
					case 0:
						tok, ok = p.TryLock()
					case 1:
						// A probe descheduled between reading m.cur and
						// pinning it until the round has moved on: by the
						// time it enters, the slot may have been reopened
						// as a later round here or in another mutex.
						s := g.m.cur.Load()
						seq := s.seq.Load()
						for y := 0; y < 64 && g.m.cur.Load() == s; y++ {
							runtime.Gosched()
						}
						if seq != p.last {
							if won, _ := p.tryRound(s, seq, false); won {
								tok, ok = seq, true
							}
						}
					default:
						tok, ok = p.LockWhile(nil) // the chaos goroutine may abort it
					}
					if !ok {
						continue
					}
					if tok <= g.lastTok {
						violate("mutex %d: token %d granted after token %d", mi, tok, g.lastTok)
					}
					g.lastTok = tok
					c := g.counter
					runtime.Gosched() // widen the window for a second holder
					g.counter = c + 1
					g.wins++
					if i%5 == 0 {
						if !g.m.Revoke(tok) {
							violate("mutex %d: Revoke(%d) of own grant failed", mi, tok)
						}
						if err := p.Unlock(tok); !errors.Is(err, ErrFenced) {
							violate("mutex %d: Unlock after Revoke = %v, want ErrFenced", mi, err)
						}
						continue
					}
					if err := p.Unlock(tok); err != nil {
						violate("mutex %d: Unlock(%d): %v", mi, tok, err)
					}
				}
			}(mi, g, p, id)
		}
	}
	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workers still running after 30s: a mutex chain is wedged")
	}
	close(stopChaos)
	chaos.Wait()
	if violations.Load() != 0 {
		t.FailNow()
	}

	var aborts, expirations uint64
	for i, g := range gs {
		if int64(g.counter) != g.wins {
			t.Errorf("mutex %d: counter = %d but %d wins — exclusion violated", i, g.counter, g.wins)
		}
		if g.wins == 0 {
			t.Errorf("mutex %d: no acquisition succeeded", i)
		}
		st := g.m.Stats()
		aborts += st.Aborts
		expirations += st.Expirations
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		tok, err := g.procs[0].Lock(ctx)
		cancel()
		if err != nil {
			t.Errorf("mutex %d: Lock after the stress: %v (chain wedged)", i, err)
			continue
		}
		unlock(t, g.procs[0], tok)
	}
	if aborts == 0 || expirations == 0 {
		t.Errorf("stress exercised aborts=%d expirations=%d; want both > 0", aborts, expirations)
	}
	if got := outstandingSlots(a); got != mutexes {
		t.Errorf("outstanding slots = %d at rest, want %d (one per mutex)", got, mutexes)
	}
}
