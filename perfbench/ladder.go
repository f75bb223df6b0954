package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	randtas "repro"
	"repro/internal/arena"
	"repro/internal/combiner"
	"repro/internal/concurrent"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ratrace"
	"repro/internal/tas"
	"repro/internal/wire"
	"repro/tasclient"
)

// Rung lengths. The ladder runs after the traced workload, so its rungs
// are short; per-layer metrics carry no regression bound.
const (
	rungNet         = time.Second            // each loopback / in-memory server rung
	rungMicro       = 500 * time.Millisecond // codec, client and arena rungs
	tasAcquisitions = 200_000                // elector rung, across all goroutines
	simRounds       = 6                      // timed passes over sim_sweep's cells, per worker count
	arenaSampleMask = 7                      // arena rung: time every eighth Unlock
)

// runLadder measures the layer ladder after a traced workload run o.
// The net rungs (codec, client, server, kernel) use the workload's own
// traffic when it is a net workload and net_pairs' traffic otherwise;
// the arena rung uses that traffic's lock names; the elector rung uses
// mutex_contended's shape; the simulator rung uses sim_sweep's cells.
func runLadder(cfg config, tr *tracer, o *outcome) (map[string]metric, error) {
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	ln := tr.lane()
	rung := func(name string, f func() error) error {
		sp := ln.begin("rung."+name, -1, 0)
		defer ln.end(sp)
		if err := f(); err != nil {
			return fmt.Errorf("%s rung: %w", name, err)
		}
		return nil
	}
	conns := netConns(cfg.procs)
	sh := pairsShape(cfg.seed, conns)
	if cfg.workload == "net_open" {
		sh = openShape(cfg.seed, conns)
	}

	// Runtime: from the traced workload run itself.
	set("runtime.gc_cpu_share", "ratio", o.win.gcCPU/max(o.win.busyCPU, 1e-9))
	set("runtime.sched_latency_p99_us", "us", histQuantile(o.win.sched, 0.99)*1e6)

	var wc wireCost
	var client clientCost
	var inmem, loop, looped netCost
	var ar arenaCost
	steps := []struct {
		name string
		f    func() error
	}{
		{"wire", func() (err error) { wc, err = wireRung(sh); return }},
		{"tasclient", func() (err error) { client, err = clientRung(sh); return }},
		{"server", func() (err error) { inmem, err = netRung(cfg, sh, true, nil, o); return }},
		{"loopback", func() (err error) { loop, err = netRung(cfg, sh, false, nil, o); return }},
		{"loopback-traced", func() (err error) { looped, err = netRung(cfg, sh, false, tr, o); return }},
		{"arena", func() (err error) { ar, err = arenaRung(cfg, sh); return }},
		{"tas", func() error { return tasRung(cfg, set) }},
		{"sim", func() error { return simRung(cfg, set, o) }},
		{"loadgen", func() error { return loadgenRung(cfg, tr, o, set) }},
	}
	for _, s := range steps {
		if err := rung(s.name, s.f); err != nil {
			return nil, err
		}
	}

	set("wire.encode_ns_per_frame", "ns", (wc.encReq+wc.encResp)/2)
	set("wire.decode_ns_per_frame", "ns", (wc.decReq+wc.decResp)/2)
	set("wire.allocs_per_frame", "count", wc.allocsPerFrame)
	set("wire.bytes_per_op", "B", wc.bytesPerOp)
	set("tasclient.ns_per_batch", "ns", client.nsPerBatch)
	set("tasclient.allocs_per_batch", "count", client.allocsPerBatch)
	set("server.inmem_ops_per_s", "1/s", inmem.opsPerS)
	set("server.inmem_latency_p50_us", "us", inmem.p50/1e3)
	set("server.conn_reads_per_batch", "count", inmem.readsPerBatch)
	set("server.conn_writes_per_batch", "count", inmem.writesPerBatch)
	set("server.contended_share", "ratio", inmem.contendedShare)
	set("net.socket_share", "ratio", (loop.cpuPerOp-inmem.cpuPerOp)/loop.cpuPerOp)
	set("net.sys_cpu_share", "ratio", loop.sysShare)
	set("arena.lock_unlock_ns", "ns", ar.pairNs)
	set("arena.unlock_ns_p50", "ns", ar.unlockP50)
	set("arena.slot_miss_ratio", "ratio", ar.missRatio)
	set("trace.overhead_ratio", "ratio", looped.opsPerS/loop.opsPerS)

	// Self time of each layer per request, as a share of the loopback
	// rung's CPU time per request (the base, reported alongside). The
	// five shares sum to 1; the server share is the residual and so
	// includes the in-memory pipe and goroutine hand-offs.
	base := loop.cpuPerOp
	wireClient := wc.encReq + wc.decResp
	wireServer := wc.decReq + wc.encResp
	arenaPerOp := ar.pairNs / 2 // a pair is two requests
	set("ladder.loopback_cpu_ns_per_op", "ns", base)
	set("ladder.inmem_cpu_ns_per_op", "ns", inmem.cpuPerOp)
	set("ladder.wire_share", "ratio", (wireClient+wireServer)/base)
	set("ladder.tasclient_share", "ratio", (client.nsPerOp-wireClient)/base)
	set("ladder.arena_share", "ratio", arenaPerOp/base)
	set("ladder.server_share", "ratio", (inmem.cpuPerOp-client.nsPerOp-wireServer-arenaPerOp)/base)
	return m, nil
}

// requestsOf lists connection 0's requests in sending order.
func requestsOf(sh netShape) []tasclient.Op {
	var ops []tasclient.Op
	for _, cy := range sh[0] {
		for _, b := range cy {
			ops = append(ops, b...)
		}
	}
	return ops
}

// wireCost is the codec rung: ns per request of each codec direction,
// and the allocation and byte counts of a request plus its response.
type wireCost struct {
	encReq, decReq, encResp, decResp float64
	allocsPerFrame, bytesPerOp       float64
}

// wireRung encodes and decodes the workload's exact frames, request and
// response, through the wire package's public codec.
func wireRung(sh netShape) (wireCost, error) {
	var reqs []wire.Request
	var resps []wire.Response
	for i, op := range requestsOf(sh) {
		id := uint32(i + 1)
		reqs = append(reqs, wire.Request{Op: op.Code, ID: id, Name: op.Name, TTLMillis: uint32(op.TTL / time.Millisecond)})
		resp := wire.Response{Status: wire.StatusOK, ID: id}
		if op.Code == wire.OpAcquire {
			resp.Payload = wire.TokenPayload(uint64(id))
		}
		resps = append(resps, resp)
	}
	var reqBuf, respBuf []byte
	var t [4]time.Duration
	var r bytes.Reader
	iters := 0
	s0 := snap()
	for deadline := s0.at.Add(rungMicro); time.Now().Before(deadline); iters++ {
		t0 := time.Now()
		reqBuf = reqBuf[:0]
		for _, q := range reqs {
			var err error
			if reqBuf, err = wire.AppendRequest(reqBuf, q); err != nil {
				return wireCost{}, err
			}
		}
		t1 := time.Now()
		r.Reset(reqBuf)
		for range reqs {
			if _, err := wire.ReadRequest(&r, 0); err != nil {
				return wireCost{}, err
			}
		}
		t2 := time.Now()
		respBuf = respBuf[:0]
		for _, p := range resps {
			respBuf = wire.AppendResponse(respBuf, p)
		}
		t3 := time.Now()
		r.Reset(respBuf)
		for range resps {
			if _, err := wire.ReadResponse(&r, 0); err != nil {
				return wireCost{}, err
			}
		}
		t4 := time.Now()
		t[0] += t1.Sub(t0)
		t[1] += t2.Sub(t1)
		t[2] += t3.Sub(t2)
		t[3] += t4.Sub(t3)
	}
	w := s0.since()
	ops := float64(len(reqs) * iters)
	return wireCost{
		encReq: float64(t[0]) / ops, decReq: float64(t[1]) / ops,
		encResp: float64(t[2]) / ops, decResp: float64(t[3]) / ops,
		allocsPerFrame: float64(w.allocs) / (2 * ops),
		bytesPerOp:     float64(len(reqBuf)+len(respBuf)) / float64(len(reqs)),
	}, nil
}

// clientCost is the client rung: tasclient over a transport that
// answers instantly.
type clientCost struct{ nsPerBatch, nsPerOp, allocsPerBatch float64 }

// clientRung drives tasclient.Do with connection 0's batches over a
// cannedConn, so the time is the client's (and its codec calls') alone.
func clientRung(sh netShape) (clientCost, error) {
	ctx := context.Background()
	c, err := tasclient.NewClientConn(ctx, &cannedConn{token: wire.TokenPayload(7)})
	if err != nil {
		return clientCost{}, err
	}
	defer c.Close()
	var batches [][]tasclient.Op
	for _, cy := range sh[0] {
		batches = append(batches, cy...)
	}
	n, ops := 0, 0
	s0 := snap()
	for deadline := s0.at.Add(rungMicro); time.Now().Before(deadline); n++ {
		b := batches[n%len(batches)]
		res, err := c.Do(ctx, b)
		if err != nil {
			return clientCost{}, err
		}
		if !res[0].OK {
			return clientCost{}, errors.New("canned response not OK")
		}
		ops += len(b)
	}
	w := s0.since()
	return clientCost{
		nsPerBatch:     float64(w.wall) / float64(n),
		nsPerOp:        float64(w.wall) / float64(ops),
		allocsPerBatch: float64(w.allocs) / float64(n),
	}, nil
}

// cannedConn is the client rung's peer: every request frame written is
// answered at once with canned OK bytes (a fixed token for ACQUIRE, the
// protocol version for HELLO), served by the next Reads.
type cannedConn struct {
	out   []byte
	off   int
	token []byte
}

func (c *cannedConn) Write(b []byte) (int, error) {
	for p := b; len(p) >= 4; {
		n := int(binary.BigEndian.Uint32(p))
		if len(p) < 4+n || n < 5 {
			return 0, errors.New("cannedConn: torn frame")
		}
		op, id := p[4], binary.BigEndian.Uint32(p[5:9])
		resp := wire.Response{Status: wire.StatusOK, ID: id}
		switch op {
		case wire.OpHello:
			resp.Payload = wire.HelloPayload(wire.Version)
		case wire.OpAcquire:
			resp.Payload = c.token
		}
		c.out = wire.AppendResponse(c.out, resp)
		p = p[4+n:]
	}
	return len(b), nil
}

func (c *cannedConn) Read(b []byte) (int, error) {
	if c.off == len(c.out) {
		return 0, errors.New("cannedConn: read with no request outstanding")
	}
	n := copy(b, c.out[c.off:])
	c.off += n
	if c.off == len(c.out) {
		c.out, c.off = c.out[:0], 0
	}
	return n, nil
}

func (c *cannedConn) Close() error                     { return nil }
func (c *cannedConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *cannedConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *cannedConn) SetDeadline(time.Time) error      { return nil }
func (c *cannedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *cannedConn) SetWriteDeadline(time.Time) error { return nil }

// netCost is one server rung: a closed loop of the workload's traffic
// through server.New, over loopback TCP or an in-memory pipe.
type netCost struct {
	opsPerS, cpuPerOp, sysShare, p50 float64
	readsPerBatch, writesPerBatch    float64
	contendedShare                   float64
}

func netRung(cfg config, sh netShape, inMem bool, tr *tracer, o *outcome) (netCost, error) {
	sys, err := bootNet(cfg.seed, len(sh), inMem)
	if err != nil {
		return netCost{}, err
	}
	if err := firstErr(sys.closedLoop(sh, nil, netWarmBatches, nil, nil)); err != nil {
		sys.close()
		return netCost{}, err
	}
	before, err := sys.stats()
	if err != nil {
		sys.close()
		return netCost{}, err
	}
	var reads0, writes0 int64
	if inMem {
		reads0, writes0 = sys.mem.reads.Load(), sys.mem.writes.Load()
	}
	var recs []connRec
	m := startMeter(len(sys.clients))
	timed(rungNet, func(stop *atomic.Bool) { recs = sys.closedLoop(sh, stop, 0, tr, m) })
	var c netCost
	var batches int64
	for _, r := range recs {
		batches += r.batches
	}
	if inMem {
		c.readsPerBatch = float64(sys.mem.reads.Load()-reads0) / float64(max(batches, 1))
		c.writesPerBatch = float64(sys.mem.writes.Load()-writes0) / float64(max(batches, 1))
	}
	ro := &outcome{}
	if err := finishNet(sys, recs, ro, m); err != nil {
		return netCost{}, err
	}
	w := ro.win
	for _, b := range ro.breaches {
		o.breach("%s rung: %s", transportName(inMem), b)
	}
	rounds, contended := lockTotals(*sys.final)
	rounds0, contended0 := lockTotals(before)
	ops := float64(ro.ops())
	lat := make([]float64, len(ro.lat))
	for i, s := range ro.lat {
		lat[i] = s.ns
	}
	sort.Float64s(lat)
	c.opsPerS = ops / w.wall.Seconds()
	c.cpuPerOp = float64(w.cpu()) / ops
	c.sysShare = float64(w.sys) / float64(w.cpu())
	c.p50 = quantile(lat, 0.5)
	c.contendedShare = float64(contended-contended0) / float64(max(rounds-rounds0, 1))
	return c, nil
}

func transportName(inMem bool) string {
	if inMem {
		return "in-memory"
	}
	return "loopback"
}

func lockTotals(st wire.Stats) (rounds, contended uint64) {
	for _, l := range st.Locks {
		rounds += l.Rounds
		contended += l.Contended
	}
	return rounds, contended
}

// arenaCost is the arena rung: the registry's mutexes without a server.
type arenaCost struct{ pairNs, unlockP50, missRatio float64 }

// arenaRung locks and unlocks connection 0's lock names, in its order,
// on a randtas.Registry built as the server builds its own, from one
// goroutine (the workload's connections use mostly disjoint names).
func arenaRung(cfg config, sh netShape) (arenaCost, error) {
	reg, err := randtas.NewRegistry(randtas.RegistryOptions{ArenaOptions: randtas.ArenaOptions{
		Options: randtas.Options{N: len(sh) + netClientsExtra, Algorithm: randtas.Combined, Seed: cfg.seed | 1},
	}})
	if err != nil {
		return arenaCost{}, err
	}
	defer reg.Close()
	var procs []*randtas.MutexProc
	for _, op := range requestsOf(sh) {
		if op.Code == tasclient.OpAcquire {
			procs = append(procs, reg.Mutex(op.Name).Proc(0))
		}
	}
	never := func() bool { return false }
	unlocks := make([]float64, 0, 1<<16)
	pairs := 0
	s0 := snap()
	for deadline := s0.at.Add(rungMicro); time.Now().Before(deadline); pairs++ {
		p := procs[pairs%len(procs)]
		tok, ok := p.LockWhile(never)
		if !ok {
			return arenaCost{}, errors.New("LockWhile gave up with a stop that never fires")
		}
		if pairs&arenaSampleMask == 0 {
			t0 := time.Now()
			err = p.Unlock(tok)
			unlocks = append(unlocks, nsSince(t0))
		} else {
			err = p.Unlock(tok)
		}
		if err != nil {
			return arenaCost{}, err
		}
	}
	w := s0.since()
	sort.Float64s(unlocks)
	st := reg.ArenaStats()
	return arenaCost{
		pairNs:    float64(w.wall) / float64(pairs),
		unlockP50: quantile(unlocks, 0.5),
		missRatio: float64(st.Misses) / float64(max(st.Hits+st.Steals+st.Misses, 1)),
	}, nil
}

// tasRung runs mutex_contended's shape on an internal/arena mutex built
// with RMR accounting, and reads the elector's step and RMR counts.
func tasRung(cfg config, set func(name, unit string, v float64)) error {
	g := cfg.procs
	a, err := arena.New(arena.Config{
		N: g,
		Factory: func(s *concurrent.Space, n int) tas.LeaderElector {
			return combiner.New(s, ratrace.NewSpaceEfficient(s, n), core.NewLogStar(s, n))
		},
		CountRMRs: true,
	})
	if err != nil {
		return err
	}
	m := arena.NewMutex(a)
	procs := make([]*arena.MutexProc, g)
	for i := range procs {
		procs[i] = m.Proc(i, concurrent.NewHandle(i, cfg.seed+int64(i)+1))
	}
	errs := make([]error, g)
	var wg sync.WaitGroup
	for i, p := range procs {
		wg.Add(1)
		go func(i int, p *arena.MutexProc) {
			defer wg.Done()
			for n := 0; n < tasAcquisitions/g; n++ {
				tok, err := p.Lock(nil)
				if err == nil {
					err = p.Unlock(tok)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i, p)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	var steps, cc, dsm int
	for _, p := range procs {
		steps += p.Steps()
		cc += p.CCRMRs()
		dsm += p.DSMRMRs()
	}
	st := m.Stats()
	acq := float64(st.Rounds)
	set("tas.steps_per_acquire", "count", float64(steps)/acq)
	set("tas.cc_rmrs_per_acquire", "count", float64(cc)/acq)
	set("tas.dsm_rmrs_per_acquire", "count", float64(dsm)/acq)
	set("tas.contended_share", "ratio", float64(st.Contended)/acq)
	return nil
}

// simRung times passes over sim_sweep's cells at one worker and at
// cfg.procs workers on identical trials, and reports the exact mean
// maximum step count of each cell.
func simRung(cfg config, set func(name, unit string, v float64), o *outcome) error {
	cells := simCells()
	bases := make([][]int64, simRounds)
	for r := range bases {
		for i := range cells {
			bases[r] = append(bases[r], cfg.seed<<24+int64(r*len(cells)+i)*1_000_000_007)
		}
	}
	type pass struct {
		w       window
		steps   float64
		trials  int
		maxSums map[string]float64
	}
	run := func(workers int) (pass, error) {
		p := pass{maxSums: map[string]float64{}}
		s0 := snap()
		for r := range bases {
			for i, c := range cells {
				st, err := harness.Run(simSpec(c, bases[r][i], workers, nil))
				if err != nil {
					return p, err
				}
				p.steps += st.MeanTotal * float64(c.trials)
				p.trials += c.trials
				p.maxSums[c.name()] += st.MeanMax * float64(c.trials)
			}
		}
		p.w = s0.since()
		return p, nil
	}
	one, err := run(1)
	if err != nil {
		return err
	}
	many, err := run(cfg.procs)
	if err != nil {
		return err
	}
	if one.steps != many.steps {
		o.breach("sim rung: %v steps at 1 worker, %v at %d", one.steps, many.steps, cfg.procs)
	}
	set("sim.steps_per_s", "1/s", many.steps/many.w.wall.Seconds())
	set("sim.ns_per_step", "ns", float64(one.w.wall)/one.steps)
	set("sim.allocs_per_trial", "count", float64(one.w.allocs)/float64(one.trials))
	set("harness.parallel_speedup", "ratio", float64(one.w.wall)/float64(many.w.wall))
	for _, c := range cells {
		set("sim.mean_max_steps."+c.name(), "count", one.maxSums[c.name()]/float64(c.trials*simRounds))
	}
	return nil
}

// loadgenRung reports how late net_open's generator ran: from the
// traced workload itself on net_open, otherwise from a short net_open
// run over loopback.
func loadgenRung(cfg config, tr *tracer, o *outcome, set func(name, unit string, v float64)) error {
	lag := o.lag
	if cfg.workload != "net_open" {
		short := cfg
		short.dur = rungNet
		ro, err := runNetOpen(short, nil)
		if err != nil {
			return err
		}
		for _, b := range ro.breaches {
			o.breach("loadgen rung: %s", b)
		}
		lag = ro.lag
	}
	lag = append([]float64(nil), lag...)
	sort.Float64s(lag)
	set("loadgen.lag_p99_us", "us", quantile(lag, 0.99)/1e3)
	return nil
}
