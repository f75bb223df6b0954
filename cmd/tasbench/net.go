// Net mode: pass/fail correctness drills against a running tasd, the
// TCP lock service. It measures nothing and writes no file — every
// tasd performance number comes from perfbench (bash perfbench/run.sh
// --workload net_pairs). A drill drives -clients concurrent connections
// across two named locks for -duration, then reads the server's STATS
// and fails unless the contracts under test held:
//
//	churn       every eighth cycle per client "forgets" its release and
//	            leaves the lock to server-side lease expiry (-ttl);
//	            requires lease expiries and abandoned holds.
//	storm       fencing storm: clients hold past the -ttl lease on
//	            purpose, then release with the stale token; requires
//	            fenced releases.
//	disconnect  slow holders keep the locks pinned while every other
//	            client blocks in ACQUIRE and hangs up mid-wait; requires
//	            disconnects, elector aborts, and the arena's slot
//	            population back at one slot per lock within budget.
//	flood       open-loop overload: every client hammers ACQUIRE with a
//	            5ms server-side wait budget and takes BUSY for an
//	            answer; requires client and server sheds, at least 500
//	            grants per second, queue and in-flight high-waters within
//	            the server's -max-waiters/-max-inflight bounds, and the
//	            slot reclaim. Point it at a tasd with a small admission
//	            envelope.
//
// Every drill also requires zero server-side mutual-exclusion
// violations (each granted acquisition checks a token-keyed per-lock
// owner word) and no unexpected operation error, and prints one summary
// line of the counts it checked.
//
// -mode=hold is a tiny client for smoke tests: acquire one lock with a
// lease, hold it for -holdfor, then release and report whether the
// release was fenced (exit 3) — the CI drill that freezes a holder
// mid-hold and asserts lease recovery within the TTL.
//
// Usage:
//
//	tasbench -mode=net -addr host:port -scenario churn|storm|disconnect|flood
//	         [-clients C] [-ttl TTL] [-duration D]
//	tasbench -mode=hold -addr host:port [-holdlock NAME] [-ttl TTL]
//	         [-holdfor D]
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/tasclient"
)

const (
	netLocks          = 2                    // named locks every drill spreads its clients over
	churnAbandon      = 8                    // churn: forget every Nth release
	floodWait         = 5 * time.Millisecond // flood: per-ACQUIRE server-side wait budget
	floodMinGrantRate = 500                  // flood: granted ACQUIREs per second, at least
)

type netConfig struct {
	addr     string
	scenario string // churn, storm, disconnect, flood
	clients  int
	ttl      time.Duration // lease TTL on acquires (0 = none)
	duration time.Duration
}

type netWorker struct {
	fenced      int
	abandoned   int
	disconnects int
	granted     int // flood: ACQUIREs the server admitted and granted
	shed        int // flood: ACQUIREs answered BUSY
	err         error
}

func runNet(cfg netConfig) error {
	if cfg.addr == "" {
		return fmt.Errorf("net: -addr is required")
	}
	if cfg.clients < 1 {
		return fmt.Errorf("net: -clients must be ≥ 1, got %d", cfg.clients)
	}
	switch cfg.scenario {
	case "churn", "storm":
		if cfg.ttl <= 0 {
			return fmt.Errorf("net: -scenario=%s needs a positive -ttl", cfg.scenario)
		}
	case "disconnect", "flood":
	default:
		return fmt.Errorf("net: unknown -scenario %q (want churn, storm, disconnect or flood)", cfg.scenario)
	}

	workers := make([]netWorker, cfg.clients)
	var wg sync.WaitGroup
	start := make(chan struct{})
	deadline := time.Now().Add(cfg.duration)
	for w := 0; w < cfg.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &workers[w]
			c, err := tasclient.Dial(cfg.addr)
			if err != nil {
				res.err = err
				return
			}
			defer c.Close()
			// The barrier keeps every op inside the [t0, deadline]
			// window the flood's goodput floor is scaled to.
			<-start
			switch cfg.scenario {
			case "churn":
				res.runChurn(c, cfg, w, deadline)
			case "storm":
				res.runStorm(c, cfg, w, deadline)
			case "disconnect":
				res.runDisconnect(c, cfg, w, deadline)
			case "flood":
				res.runFlood(c, cfg, w, deadline)
			}
		}(w)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)

	var total netWorker
	for w := range workers {
		if workers[w].err != nil {
			return fmt.Errorf("net client %d: %v", w, workers[w].err)
		}
		total.fenced += workers[w].fenced
		total.abandoned += workers[w].abandoned
		total.disconnects += workers[w].disconnects
		total.granted += workers[w].granted
		total.shed += workers[w].shed
	}

	// The disconnect storm's exit condition is slot reclamation, not a
	// clock: every abandoned mid-ACQUIRE waiter must abort through the
	// elector and its round be recycled (dead-peer probes are
	// rate-limited to 50ms, so a few seconds is generous). The flood's
	// shed-never-holds-a-slot contract is checked the same way: after
	// the open loop stops offering, the arena must settle back to
	// baseline even though most ACQUIREs were refused at admission.
	if cfg.scenario == "disconnect" || cfg.scenario == "flood" {
		if err := awaitSlotReclaim(cfg.addr, cfg.scenario, 3*time.Second); err != nil {
			return err
		}
	}

	probe, err := tasclient.Dial(cfg.addr)
	if err != nil {
		return fmt.Errorf("net: stats probe: %v", err)
	}
	st, err := probe.Stats(context.Background())
	probe.Close()
	if err != nil {
		return fmt.Errorf("net: stats probe: %v", err)
	}
	if st.Violations != 0 {
		return fmt.Errorf("net: SERVER COUNTED %d MUTUAL-EXCLUSION VIOLATIONS", st.Violations)
	}
	var summary string
	switch cfg.scenario {
	case "churn":
		if st.LeaseExpirations == 0 || total.abandoned == 0 {
			return fmt.Errorf("net: churn scenario enforced no leases (%d expiries, %d abandoned)", st.LeaseExpirations, total.abandoned)
		}
		summary = fmt.Sprintf("lease expiries %d, abandoned %d", st.LeaseExpirations, total.abandoned)
	case "storm":
		if total.fenced == 0 {
			return fmt.Errorf("net: storm scenario observed no fenced releases")
		}
		summary = fmt.Sprintf("fenced %d", total.fenced)
	case "disconnect":
		if total.disconnects == 0 {
			return fmt.Errorf("net: disconnect scenario never abandoned a blocked ACQUIRE")
		}
		if st.Aborts == 0 {
			return fmt.Errorf("net: disconnect storm drove no elector aborts — dead waiters were never reaped mid-wait")
		}
		summary = fmt.Sprintf("disconnects %d, aborts %d, slots reclaimed", total.disconnects, st.Aborts)
	case "flood":
		if total.shed == 0 || st.Shed == 0 {
			return fmt.Errorf("net: flood scenario never tripped admission control (client sheds %d, server sheds %d) — serve it from a tasd with a small -max-waiters/-max-inflight envelope, or raise -clients", total.shed, st.Shed)
		}
		if total.granted == 0 {
			return fmt.Errorf("net: flood scenario had zero goodput — the server shed everything")
		}
		if floor := int(floodMinGrantRate * elapsed.Seconds()); total.granted < floor {
			return fmt.Errorf("net: flood granted %d ACQUIREs in %v, below the floor of %d (%d per second)",
				total.granted, elapsed.Round(time.Millisecond), floor, floodMinGrantRate)
		}
		if st.MaxWaiters > 0 && st.QueueDepthHighWater > int64(st.MaxWaiters) {
			return fmt.Errorf("net: queue depth high-water %d BREACHED the -max-waiters bound %d", st.QueueDepthHighWater, st.MaxWaiters)
		}
		if st.MaxInflight > 0 && st.InflightHighWater > int64(st.MaxInflight) {
			return fmt.Errorf("net: in-flight high-water %d BREACHED the -max-inflight bound %d", st.InflightHighWater, st.MaxInflight)
		}
		summary = fmt.Sprintf("granted %d, client sheds %d, server sheds %d, queue high-water %d/%d, in-flight high-water %d/%d, slots reclaimed",
			total.granted, total.shed, st.Shed, st.QueueDepthHighWater, st.MaxWaiters, st.InflightHighWater, st.MaxInflight)
	}
	fmt.Printf("net %s: ok — %d clients, %v, violations 0, %s\n",
		cfg.scenario, cfg.clients, elapsed.Round(time.Millisecond), summary)
	return nil
}

// runChurn is the lease-churn scenario: every churnAbandon-th cycle the
// client skips its release, leaving recovery to the server's lease
// sweeper. Abandoned grants surface on the next acquire of the same
// name (possibly blocking until expiry), so the run as a whole proves
// recovery within TTL under sustained churn.
func (res *netWorker) runChurn(c *tasclient.Client, cfg netConfig, w int, deadline time.Time) {
	ctx := context.Background()
	cycle := 0
	// A connected client that abandons a grant still holds it until the
	// sweeper fences it; re-acquiring the same name before then is a
	// (correctly rejected) reentrant acquire. Track our own abandoned
	// names and steer clear until the lease has surely lapsed.
	abandoned := map[string]time.Time{}
	grace := cfg.ttl * 3
	for time.Now().Before(deadline) {
		name := fmt.Sprintf("lock-%d", (w+cycle)%netLocks)
		if at, ok := abandoned[name]; ok {
			if time.Since(at) < grace {
				cycle++
				time.Sleep(time.Millisecond)
				continue
			}
			delete(abandoned, name)
		}
		tok, err := c.Acquire(ctx, name, cfg.ttl)
		if err != nil {
			res.err = fmt.Errorf("churn acquire %s: %v", name, err)
			return
		}
		cycle++
		if cycle%churnAbandon == 0 {
			res.abandoned++ // leave it to the lease sweeper
			abandoned[name] = time.Now()
			continue
		}
		if err := c.Release(ctx, name, tok); err != nil {
			if errors.Is(err, tasclient.ErrFenced) {
				res.fenced++ // sweeper got there first; legal under churn
				continue
			}
			res.err = fmt.Errorf("churn release %s: %v", name, err)
			return
		}
	}
}

// runStorm is the fencing storm: hold past the TTL on purpose, then
// release with the stale token and demand StatusFenced. Every client
// does this concurrently on the shared lock set.
func (res *netWorker) runStorm(c *tasclient.Client, cfg netConfig, w int, deadline time.Time) {
	ctx := context.Background()
	cycle := 0
	for time.Now().Before(deadline) {
		name := fmt.Sprintf("lock-%d", (w+cycle)%netLocks)
		cycle++
		tok, err := c.Acquire(ctx, name, cfg.ttl)
		if err != nil {
			res.err = fmt.Errorf("storm acquire %s: %v", name, err)
			return
		}
		time.Sleep(cfg.ttl + cfg.ttl/2) // deliberately outlive the lease
		err = c.Release(ctx, name, tok)
		switch {
		case errors.Is(err, tasclient.ErrFenced):
			res.fenced++
		case err == nil:
			// The sweeper may not have fired yet on a quiet lock; a
			// clean release is acceptable, just not countable.
		default:
			res.err = fmt.Errorf("storm release %s: %v", name, err)
			return
		}
	}
}

// runDisconnect is the disconnect-storm drill: worker 0 per lock plays
// a slow holder (its grants outlast the server's 50ms dead-peer probe
// rate limit), while every other worker blocks in ACQUIRE behind it and
// then hangs up mid-wait — a context deadline breaks the connection
// without a frame boundary, exactly like a crashed client. The server
// must abort each abandoned waiter through the elector and recycle its
// round; runNet verifies that afterwards via STATS (aborts > 0, slot
// population back to one per lock, zero violations).
func (res *netWorker) runDisconnect(c *tasclient.Client, cfg netConfig, w int, deadline time.Time) {
	bg := context.Background()
	if w < netLocks && w < cfg.clients/2 {
		// Holder: keep lock-w held in long beats so waiters pile up and
		// their hangups are discovered mid-wait, not at grant time.
		name := fmt.Sprintf("lock-%d", w)
		for time.Now().Before(deadline) {
			tok, err := c.Acquire(bg, name, 0)
			if err != nil {
				res.err = fmt.Errorf("disconnect holder %s: %v", name, err)
				return
			}
			time.Sleep(80 * time.Millisecond)
			if err := c.Release(bg, name, tok); err != nil {
				res.err = fmt.Errorf("disconnect holder release %s: %v", name, err)
				return
			}
		}
		return
	}
	// Stormer: block behind a holder, hang up mid-wait, redial, repeat.
	cycle := 0
	for time.Now().Before(deadline) {
		name := fmt.Sprintf("lock-%d", (w+cycle)%netLocks)
		cycle++
		ctx, cancel := context.WithTimeout(bg, time.Duration(5+w%7)*time.Millisecond)
		tok, err := c.Acquire(ctx, name, 0)
		cancel()
		if err == nil {
			// Slipped in between holder beats; release and go again.
			// A failed release is not this drill's contract: STATS
			// still checks the lock's exclusion and slot afterwards.
			_ = c.Release(bg, name, tok)
			continue
		}
		// The timed-out ACQUIRE abandoned the stream mid-operation; the
		// close below is what the server's dead-peer probe discovers.
		res.disconnects++
		c.Close()
		c = nil
		for time.Now().Before(deadline) {
			if c, err = tasclient.Dial(cfg.addr); err == nil {
				break
			}
			// Transiently full while the server reaps our corpses.
			time.Sleep(2 * time.Millisecond)
		}
		if c == nil {
			return
		}
	}
	if c != nil {
		c.Close()
	}
}

// runFlood is the open-loop overload drill: every worker offers
// AcquireWithin(floodWait) as fast as the wire turns around, takes BUSY
// for an answer, and never backs off — offered load is whatever the
// connection can carry, not what the server can serve. Grants are
// released promptly, sheds go straight back to offering. runNet
// verifies afterwards that the server both shed and granted, honored
// its own admission bounds, and reclaimed every slot.
func (res *netWorker) runFlood(c *tasclient.Client, cfg netConfig, w int, deadline time.Time) {
	bg := context.Background()
	cycle := 0
	for time.Now().Before(deadline) {
		name := fmt.Sprintf("lock-%d", (w+cycle)%netLocks)
		cycle++
		tok, err := c.AcquireWithin(bg, name, cfg.ttl, floodWait)
		switch {
		case err == nil:
			res.granted++
			if rerr := c.Release(bg, name, tok); rerr != nil {
				res.err = fmt.Errorf("flood release %s: %v", name, rerr)
				return
			}
		case errors.Is(err, tasclient.ErrBusy):
			res.shed++ // the degradation contract: a clean refusal, connection intact
		default:
			res.err = fmt.Errorf("flood acquire %s: %v", name, err)
			return
		}
	}
}

// awaitSlotReclaim polls STATS until the arena's live slot population
// (Gets minus Puts) settles to the steady-state baseline of one slot
// per live named lock plus one per live election — both read from the
// same snapshot, so the drill also works against a shared server that
// has names from earlier scenarios. An unrecovered winnerless round
// would pin its slot and hold the population above baseline forever,
// so equality within the budget is the abort-leaves-no-residue gate.
func awaitSlotReclaim(addr, scenario string, budget time.Duration) error {
	start := time.Now()
	last, want := int64(-1), int64(-1)
	for {
		// Dial failures are transient right after the storm (connection
		// slots still held by corpses the server is reaping), so only
		// the budget turns them fatal.
		if probe, err := tasclient.Dial(addr); err == nil {
			st, serr := probe.Stats(context.Background())
			probe.Close()
			if serr == nil {
				if st.Truncated {
					return fmt.Errorf("net: STATS truncated — too many names to compute the slot baseline")
				}
				last = int64(st.Arena.Hits+st.Arena.Steals+st.Arena.Misses) - int64(st.Arena.Puts)
				want = int64(len(st.Locks) + len(st.Elections))
				if last == want {
					return nil
				}
			}
		}
		if time.Since(start) > budget {
			return fmt.Errorf("net: arena stuck at %d live slots (want %d) %v after the %s scenario — slots leaked",
				last, want, budget, scenario)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runHold is -mode=hold: the smoke-test client. It acquires one lock
// with a lease, holds it for holdfor (surviving SIGSTOP — the point of
// the drill), then releases. Exit codes: 0 clean release, 3 the release
// was fenced (the lease expired mid-hold).
func runHold(addr, lock string, ttl, holdfor time.Duration) error {
	if addr == "" {
		return fmt.Errorf("hold: -addr is required")
	}
	c, err := tasclient.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tok, err := c.Acquire(ctx, lock, ttl)
	if err != nil {
		return err
	}
	fmt.Printf("hold: acquired %q token %d (ttl %v), holding %v\n", lock, tok, ttl, holdfor)
	if holdfor > 0 {
		time.Sleep(holdfor)
	}
	if err := c.Release(context.Background(), lock, tok); err != nil {
		if errors.Is(err, tasclient.ErrFenced) {
			fmt.Printf("hold: release fenced — the lease expired mid-hold\n")
			os.Exit(3)
		}
		return err
	}
	fmt.Printf("hold: released cleanly\n")
	return nil
}

// fatalf prints to stderr and exits non-zero, so a failed run fails CI.
func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
