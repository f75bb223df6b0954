package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	randtas "repro"
)

const (
	mutexWarmAcquisitions = 200_000 // per set-up, across all goroutines
	// mutexSampleEvery: Lock wait is timed on every eighth acquisition;
	// timing every one would add two clock reads to a ~200 ns op.
	mutexSampleEvery = 8
	// mutexReportEvery: acquisitions are reported to the meter in
	// batches, so the hot loop touches no shared cache line per op.
	mutexReportEvery = 64
)

// locker is one goroutine's handle on the mutex under test.
type locker interface {
	Lock() (uint64, error)
	Unlock(tok uint64) error
}

// lockFactory builds the mutex under test and one locker per goroutine.
type lockFactory func(seed int64, goroutines int) ([]locker, error)

type procLocker struct{ p *randtas.MutexProc }

func (l procLocker) Lock() (uint64, error)   { return l.p.Lock(context.Background()) }
func (l procLocker) Unlock(tok uint64) error { return l.p.Unlock(tok) }

// randtasLockers is mutex_contended's lock: one randtas.Mutex (combined)
// on a private arena, one proc per goroutine.
func randtasLockers(seed int64, g int) ([]locker, error) {
	m, err := randtas.NewMutex(randtas.ArenaOptions{Options: randtas.Options{N: g, Algorithm: randtas.Combined, Seed: seed | 1}})
	if err != nil {
		return nil, err
	}
	ls := make([]locker, g)
	for i := range ls {
		ls[i] = procLocker{m.Proc(i)}
	}
	return ls, nil
}

// csCheck is the critical section's own bookkeeping. guarded and
// lastTok are touched only by the goroutine that won the owner word, so
// a lock that double-grants shows up as a failed owner CAS, never as a
// data race.
type csCheck struct {
	owner       atomic.Int64 // holder's id+1; 0 when free
	violations  atomic.Int64 // owner word found taken: a double grant
	guarded     int64        // critical sections completed
	lastTok     uint64
	regressions int64 // tokens that failed to exceed their predecessor
}

func (c *csCheck) critical(id int, tok uint64) {
	if !c.owner.CompareAndSwap(0, int64(id)+1) {
		c.violations.Add(1)
		return
	}
	c.guarded++
	if tok <= c.lastTok {
		c.regressions++
	}
	c.lastTok = tok
	c.owner.Store(0)
}

// mutexRec is one goroutine's tally.
type mutexRec struct {
	attempts int64
	acquired int64
	errs     int64 // Lock or Unlock errors
	lat      latencies
}

// driveMutex runs Lock → critical section → Unlock on every locker in
// its own goroutine until stop (or, with stop nil, count times each).
// m, when not nil, meters the loop.
func driveMutex(ls []locker, chk *csCheck, stop *atomic.Bool, count int, tr *tracer, m *meter) []mutexRec {
	recs := make([]mutexRec, len(ls))
	var wg sync.WaitGroup
	for id, l := range ls {
		wg.Add(1)
		go func(id int, l locker) {
			defer wg.Done()
			ln := tr.lane()
			rec := &recs[id]
			reported := int64(0)
			defer func() {
				if m != nil {
					m.add(id, rec.acquired-reported)
				}
			}()
			for i := 0; stop == nil && i < count || stop != nil && !stop.Load(); i++ {
				op := uint64(id)<<40 | uint64(i)
				timeIt := m != nil && i%mutexSampleEvery == 0
				var t0 time.Time
				if timeIt {
					t0 = time.Now()
				}
				sp := ln.begin("randtas.MutexProc.Lock", -1, op)
				tok, err := l.Lock()
				ln.end(sp)
				if timeIt {
					now := time.Now()
					rec.lat.add(m, now, float64(now.Sub(t0)))
				}
				rec.attempts++
				if err != nil {
					rec.errs++
					continue
				}
				rec.acquired++
				if m != nil && rec.acquired-reported == mutexReportEvery {
					m.add(id, mutexReportEvery)
					reported = rec.acquired
				}
				chk.critical(id, tok)
				sp = ln.begin("randtas.MutexProc.Unlock", -1, op)
				if err := l.Unlock(tok); err != nil {
					rec.errs++
				}
				ln.end(sp)
			}
		}(id, l)
	}
	wg.Wait()
	return recs
}

// verifyMutex checks a run's critical-section bookkeeping.
func verifyMutex(chk *csCheck, acquired, errs int64) []string {
	var out []string
	v := chk.violations.Load()
	if v != 0 {
		out = append(out, fmt.Sprintf("owner word already held at %d acquisitions (double grant)", v))
	}
	if chk.guarded != acquired-v {
		out = append(out, fmt.Sprintf("critical-section counter %d, want %d acquisitions", chk.guarded, acquired-v))
	}
	if chk.regressions != 0 {
		out = append(out, fmt.Sprintf("fencing token failed to increase %d times", chk.regressions))
	}
	if errs != 0 {
		out = append(out, fmt.Sprintf("%d Lock/Unlock calls returned an error", errs))
	}
	return out
}

// runMutexContended is the mutex_contended workload: one goroutine per
// CPU doing Lock/Unlock on one in-process randtas.Mutex.
func runMutexContended(cfg config, tr *tracer) (*outcome, error) {
	return mutexRun(cfg, randtasLockers, tr)
}

func mutexRun(cfg config, mk lockFactory, tr *tracer) (*outcome, error) {
	g := cfg.procs
	o := &outcome{}
	var ls []locker
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		var err error
		if ls, err = mk(cfg.seed, g); err != nil {
			return nil, err
		}
		var warm csCheck
		recs := driveMutex(ls, &warm, nil, mutexWarmAcquisitions/g, nil, nil)
		o.setups = append(o.setups, time.Since(t0))
		acq, errs := mutexTotals(recs)
		for _, b := range verifyMutex(&warm, acq, errs) {
			o.breach("warm-up: %s", b)
		}
	}
	var chk csCheck
	var recs []mutexRec
	m := startMeter(g)
	timed(cfg.dur, func(stop *atomic.Bool) { recs = driveMutex(ls, &chk, stop, 0, tr, m) })
	for _, r := range recs {
		o.attempted += r.attempts
		o.lat = append(o.lat, r.lat.all()...)
	}
	o.finish(m)
	acq, errs := mutexTotals(recs)
	o.failed = errs + chk.violations.Load()
	o.breaches = append(o.breaches, verifyMutex(&chk, acq, errs)...)
	return o, nil
}

func mutexTotals(recs []mutexRec) (acquired, errs int64) {
	for _, r := range recs {
		acquired += r.acquired
		errs += r.errs
	}
	return acquired, errs
}
