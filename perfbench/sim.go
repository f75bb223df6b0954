package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/agtv"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ratrace"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tas"
)

// simCell is one harness.Run configuration of sim_sweep: an elector
// wrapped as a TAS object, built the way -mode=complexity builds its
// series, at contention k = n.
type simCell struct {
	elector string
	k       int
	trials  int // trials per harness.Run call
	factory harness.Factory
}

func (c simCell) name() string { return fmt.Sprintf("%s.k%d", c.elector, c.k) }

// tasElector adapts a TAS object to the harness: the unique caller that
// reads 0 wins.
type tasElector struct{ t *tas.TAS }

func (e tasElector) Elect(h shm.Handle) bool { return e.t.TAS(h) == 0 }

func tasFastFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	inner := core.NewLogStar(s, n)
	return tasElector{tas.New(s, tas.NewFastPath(s, inner))}, inner.IsArrayRegister
}

func ratraceFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	return tasElector{tas.New(s, ratrace.NewSpaceEfficient(s, n))}, nil
}

func agtvFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	return tasElector{tas.New(s, agtv.New(s, n))}, nil
}

// Contention levels of the sweep: one small, one large.
const (
	simSmallK = 4
	simLargeK = 32
)

// simCells is sim_sweep's cell list. The trial counts are fixed; they
// were chosen so that every harness.Run call took about 3 to 6 ms with
// two workers on a 2-vCPU x86-64 VM. Similar call times keep the
// per-call latency distribution from splitting into far-apart clusters,
// and short calls give each one-second slice a few hundred samples.
func simCells() []simCell {
	return []simCell{
		{"tasfast", simSmallK, 135, tasFastFactory},
		{"tasfast", simLargeK, 27, tasFastFactory},
		{"ratrace", simSmallK, 70, ratraceFactory},
		{"ratrace", simLargeK, 6, ratraceFactory},
		{"agtv", simSmallK, 165, agtvFactory},
		{"agtv", simLargeK, 18, agtvFactory},
	}
}

// simSpec is the harness.Run spec of one call: the random-oblivious
// adversary, base seed drawn from the run's seed stream. With a log,
// every trial's adversary is timed and kept there.
func simSpec(c simCell, base int64, workers int, log *trialLog) harness.Spec {
	adv := func(seed int64) sim.Adversary { return sim.NewRandomOblivious(seed) }
	if log != nil {
		adv = log.adversary
	}
	return harness.Spec{
		Algorithm: c.name(),
		Factory:   c.factory,
		N:         c.k,
		K:         c.k,
		Trials:    c.trials,
		BaseSeed:  base,
		Adversary: harness.Oblivious(adv),
		Workers:   workers,
	}
}

// timedAdversary times one trial, from its first scheduling decision to
// its last, and otherwise is the random-oblivious adversary it wraps.
type timedAdversary struct {
	sim.Adversary
	first, last time.Time
}

func (a *timedAdversary) Next(v sim.View) int {
	now := time.Now()
	if a.first.IsZero() {
		a.first = now
	}
	a.last = now
	return a.Adversary.Next(v)
}

// trialLog collects the timed adversaries of one harness.Run call; the
// harness workers build them concurrently.
type trialLog struct {
	mu   sync.Mutex
	advs []*timedAdversary
}

func (l *trialLog) adversary(seed int64) sim.Adversary {
	a := &timedAdversary{Adversary: sim.NewRandomOblivious(seed)}
	l.mu.Lock()
	l.advs = append(l.advs, a)
	l.mu.Unlock()
	return a
}

// runSimSweep is the sim_sweep workload: harness.Run over every cell in
// turn, cfg.procs workers, until the time is up.
func runSimSweep(cfg config, tr *tracer) (*outcome, error) {
	return simSweep(cfg, simCells(), tr)
}

func simSweep(cfg config, cells []simCell, tr *tracer) (*outcome, error) {
	o := &outcome{}
	seeds := rand.New(rand.NewPCG(uint64(cfg.seed), 0x51a))
	// Set-up: every cell's System pools built and one pass of trials run.
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		for _, c := range cells {
			c.trials = 16 * cfg.procs
			if _, err := harness.Run(simSpec(c, seeds.Int64N(1<<40), cfg.procs, nil)); err != nil {
				o.breach("set-up: %v", err)
			}
		}
		o.setups = append(o.setups, time.Since(t0))
	}
	// The output must not depend on the worker count.
	probe := cells[len(cells)-1]
	base := seeds.Int64N(1 << 40)
	one, err1 := harness.Run(simSpec(probe, base, 1, nil))
	many, errN := harness.Run(simSpec(probe, base, cfg.procs, nil))
	switch {
	case err1 != nil || errN != nil:
		o.breach("worker-count check: %v / %v", err1, errN)
	case one != many:
		o.breach("%s: StepStats differ between 1 worker (%+v) and %d workers (%+v)", probe.name(), one, cfg.procs, many)
	}

	ln := tr.lane()
	m := startMeter(1)
	var lat latencies
	var log trialLog
	deadline := m.t0.Add(cfg.dur)
	for call := uint64(0); time.Now().Before(deadline); call++ {
		c := cells[call%uint64(len(cells))]
		sp := ln.begin("harness.Run "+c.name(), -1, call)
		_, err := harness.Run(simSpec(c, seeds.Int64N(1<<40), cfg.procs, &log))
		ln.end(sp)
		o.attempted += int64(c.trials)
		if err != nil {
			o.failed += int64(c.trials)
			o.breach("%v", err)
			continue
		}
		m.add(0, int64(c.trials))
		for _, a := range log.advs {
			lat.add(m, a.last, float64(a.last.Sub(a.first)))
		}
		log.advs = log.advs[:0]
	}
	o.lat = lat.all()
	o.finish(m)
	return o, nil
}
