package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	randtas "repro"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/tasclient"
)

// Workload parameters. They are fixed, never derived from measured
// capacity, so a faster program receives the same load.
const (
	pairsDepth       = 16               // ACQUIRE+RELEASE pairs per pipelined batch
	pairsLocksPer    = 64               // lock names per net_pairs connection
	pairsShared      = 4                // of which drawn from a pool shared by all connections
	pairsSharedPool  = 8                // size of that pool
	pairsLease       = 10 * time.Second // lease on every ACQUIRE; releases are prompt, so it never fires
	openLocks        = 4                // lock names shared by every net_open connection
	openRatePerConn  = 2000             // net_open cycles offered per second per connection
	netWarmBatches   = 1000             // closed-loop warm-up batches per connection per set-up
	netClientsExtra  = 2                // server slots beyond the load connections (STATS probes)
	slotReclaimLimit = 2 * time.Second  // how long the arena may take to settle after the load stops
)

// netConns is the connection count of both net workloads: at most one
// per CPU and at most two, the size the workloads were tuned at.
func netConns(procs int) int { return min(procs, 2) }

// netCycle is one unit a connection repeats: one or more Do batches
// that together acquire and release every lock they touch, so a run
// stopped between cycles holds no locks.
type netCycle [][]tasclient.Op

// netShape is a net workload's traffic: per connection, the cycles it
// sends in order (a closed loop wraps around).
type netShape [][]netCycle

// pairsShape builds net_pairs' traffic from the seed: each connection
// cycles pipelined batches over its own lock names, a few of which come
// from a small pool every connection shares.
func pairsShape(seed int64, conns int) netShape {
	r := rand.New(rand.NewPCG(uint64(seed), 0x9a125))
	sh := make(netShape, conns)
	for c := 0; c < conns; c++ {
		names := make([]string, 0, pairsLocksPer)
		for i := 0; i < pairsLocksPer-pairsShared; i++ {
			names = append(names, fmt.Sprintf("pairs-c%d-%d", c, i))
		}
		for _, i := range r.Perm(pairsSharedPool)[:pairsShared] {
			names = append(names, fmt.Sprintf("pairs-shared-%d", i))
		}
		r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		for b := 0; b < pairsLocksPer/pairsDepth; b++ {
			batch := make([]tasclient.Op, 0, 2*pairsDepth)
			for _, name := range names[b*pairsDepth : (b+1)*pairsDepth] {
				batch = append(batch,
					tasclient.Op{Code: tasclient.OpAcquire, Name: name, TTL: pairsLease},
					tasclient.Op{Code: tasclient.OpRelease, Name: name})
			}
			sh[c] = append(sh[c], netCycle{batch})
		}
	}
	return sh
}

// openCycle is one scheduled net_open cycle.
type openCycle struct {
	due  time.Duration // offset from the run's start
	lock int           // index into openCycles
}

// openCycles holds net_open's cycle for each shared lock name: an
// unpipelined ACQUIRE, then a RELEASE.
var openCycles = func() []netCycle {
	cs := make([]netCycle, openLocks)
	for i := range cs {
		name := fmt.Sprintf("open-%d", i)
		cs[i] = netCycle{
			{{Code: tasclient.OpAcquire, Name: name}},
			{{Code: tasclient.OpRelease, Name: name}},
		}
	}
	return cs
}()

// openSchedule builds net_open's traffic from the seed: per connection,
// Poisson arrivals at openRatePerConn over span, each an unpipelined
// ACQUIRE then RELEASE of one of openLocks shared names.
func openSchedule(seed int64, conns int, span time.Duration) [][]openCycle {
	r := rand.New(rand.NewPCG(uint64(seed), 0x0fe4))
	out := make([][]openCycle, conns)
	for c := range out {
		var at time.Duration
		for {
			at += time.Duration(r.ExpFloat64() / openRatePerConn * float64(time.Second))
			if at >= span {
				break
			}
			out[c] = append(out[c], openCycle{due: at, lock: r.IntN(openLocks)})
		}
	}
	return out
}

// openShape is net_open's traffic as a closed loop (used by the ladder's
// rungs and by set-up warm-up): the first cycles of each connection's
// schedule, repeated.
func openShape(seed int64, conns int) netShape {
	sched := openSchedule(seed, conns, time.Second)
	sh := make(netShape, conns)
	for c := range sched {
		for _, oc := range sched[c][:min(64, len(sched[c]))] {
			sh[c] = append(sh[c], openCycles[oc.lock])
		}
	}
	return sh
}

// netSys is a running in-process tasd and its load connections.
type netSys struct {
	srv      *server.Server
	served   chan error
	mem      *memListener // nil when the traffic crosses loopback TCP
	addr     string
	clients  []*tasclient.Client
	acquires int64 // ACQUIREs sent over the system's lifetime
	releases int64
	final    *wire.Stats // the STATS snapshot finishNet verified
}

// bootNet starts a server (combined algorithm) and dials conns clients,
// over loopback TCP or, with inMem, an in-memory pipe.
func bootNet(seed int64, conns int, inMem bool) (*netSys, error) {
	cfg := server.Config{
		Addr:       "127.0.0.1:0",
		MaxClients: conns + netClientsExtra,
		Algorithm:  randtas.Combined,
		Seed:       seed | 1,
	}
	s := &netSys{served: make(chan error, 1)}
	if inMem {
		s.mem = newMemListener()
		cfg.Listener = s.mem
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Listen(); err != nil {
		return nil, err
	}
	s.srv = srv
	s.addr = srv.Addr().String()
	go func() { s.served <- srv.Serve() }()
	for i := 0; i < conns; i++ {
		c, err := s.dial()
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial %d: %w", i, err)
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

func (s *netSys) dial() (*tasclient.Client, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.mem == nil {
		return tasclient.DialContext(ctx, s.addr)
	}
	nc, err := s.mem.dial()
	if err != nil {
		return nil, err
	}
	return tasclient.NewClientConn(ctx, nc)
}

// stats reads the server's STATS over a fresh probe connection.
func (s *netSys) stats() (wire.Stats, error) {
	c, err := s.dial()
	if err != nil {
		return wire.Stats{}, err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return c.Stats(ctx)
}

// close hangs up every client, drains the server and waits for Serve.
func (s *netSys) close() error {
	for _, c := range s.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

// connRec is one connection's tally in a measured loop.
type connRec struct {
	requests int64
	failed   int64
	acquires int64
	releases int64
	batches  int64
	lat      latencies // batch round trip (closed loop) or cycle time from due (open loop)
	lag      []float64 // ns: open loop only, how late the cycle's first write was
	err      error
}

// do sends one cycle and tallies it. A non-OK result is a failed op.
// With a meter, each batch's requests are reported to it as worker w's,
// and closed-loop batches are latency samples.
func (r *connRec) do(c *tasclient.Client, cy netCycle, ln *lane, parent int32, op uint64, m *meter, w int, sampleBatches bool) error {
	for _, b := range cy {
		sp := ln.begin("tasclient.Do", parent, op)
		t0 := time.Now()
		res, err := c.Do(context.Background(), b)
		rtt := time.Since(t0)
		ln.end(sp)
		if err != nil {
			return err
		}
		r.batches++
		r.requests += int64(len(b))
		for i, res := range res {
			if !res.OK {
				r.failed++
			}
			switch b[i].Code {
			case tasclient.OpAcquire:
				r.acquires++
			case tasclient.OpRelease:
				r.releases++
			}
		}
		if m != nil {
			m.add(w, int64(len(b)))
			if sampleBatches {
				r.lat.add(m, t0.Add(rtt), float64(rtt))
			}
		}
	}
	return nil
}

// closedLoop runs every connection's cycles back to back until stop
// (or, with stop nil, for count cycles each) and returns the tallies.
// m, when not nil, meters the loop.
func (s *netSys) closedLoop(sh netShape, stop *atomic.Bool, count int, tr *tracer, m *meter) []connRec {
	recs := make([]connRec, len(s.clients))
	var wg sync.WaitGroup
	for ci, c := range s.clients {
		wg.Add(1)
		go func(ci int, c *tasclient.Client) {
			defer wg.Done()
			ln := tr.lane()
			rec := &recs[ci]
			cycles := sh[ci]
			for i := 0; stop == nil && i < count || stop != nil && !stop.Load(); i++ {
				op := uint64(ci)<<40 | uint64(i)
				if err := rec.do(c, cycles[i%len(cycles)], ln, -1, op, m, ci, true); err != nil {
					rec.err = err
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	s.tally(recs)
	return recs
}

// tally adds the loop's sent requests to the system's lifetime counts.
func (s *netSys) tally(recs []connRec) {
	for _, r := range recs {
		s.acquires += r.acquires
		s.releases += r.releases
	}
}

// timed runs fn for d wall seconds: fn gets the flag that ends it.
func timed(d time.Duration, fn func(stop *atomic.Bool)) {
	var stop atomic.Bool
	t := time.AfterFunc(d, func() { stop.Store(true) })
	defer t.Stop()
	fn(&stop)
}

// setupNet builds the system setupReps times (boot, dial, warm-up) and
// keeps the last build running.
func setupNet(cfg config, sh netShape, o *outcome) (*netSys, error) {
	var sys *netSys
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		s, err := bootNet(cfg.seed, len(sh), false)
		if err != nil {
			return nil, err
		}
		if err := firstErr(s.closedLoop(sh, nil, netWarmBatches, nil, nil)); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		o.setups = append(o.setups, time.Since(t0))
		if rep < setupReps-1 {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("set-up teardown: %w", err)
			}
		}
		sys = s
	}
	return sys, nil
}

func firstErr(recs []connRec) error {
	for i, r := range recs {
		if r.err != nil {
			return fmt.Errorf("connection %d: %w", i, r.err)
		}
	}
	return nil
}

// collect folds per-connection tallies into the outcome.
func (o *outcome) collect(recs []connRec) {
	for _, r := range recs {
		o.attempted += r.requests
		o.failed += r.failed
		o.lat = append(o.lat, r.lat.all()...)
		o.lag = append(o.lag, r.lag...)
	}
	if o.failed > 0 {
		o.breach("%d of %d requests answered other than OK", o.failed, o.attempted)
	}
}

// runNetPairs is the net_pairs workload: a closed loop of pipelined
// ACQUIRE(lease)+RELEASE batches over loopback TCP.
func runNetPairs(cfg config, tr *tracer) (*outcome, error) {
	sh := pairsShape(cfg.seed, netConns(cfg.procs))
	o := &outcome{}
	sys, err := setupNet(cfg, sh, o)
	if err != nil {
		return nil, err
	}
	var recs []connRec
	m := startMeter(len(sys.clients))
	timed(cfg.dur, func(stop *atomic.Bool) { recs = sys.closedLoop(sh, stop, 0, tr, m) })
	return o, finishNet(sys, recs, o, m)
}

// runNetOpen is the net_open workload: each connection sends
// unpipelined ACQUIRE→RELEASE cycles on a seeded Poisson schedule over
// a few shared lock names; latency counts from each cycle's due time.
func runNetOpen(cfg config, tr *tracer) (*outcome, error) {
	conns := netConns(cfg.procs)
	o := &outcome{}
	sys, err := setupNet(cfg, openShape(cfg.seed, conns), o)
	if err != nil {
		return nil, err
	}
	sched := openSchedule(cfg.seed, conns, cfg.dur)
	recs := make([]connRec, conns)
	sleepers := make([]*sleeper, conns)
	for i := range sleepers {
		if sleepers[i], err = newSleeper(); err != nil {
			sys.close()
			return nil, err
		}
		defer sleepers[i].close()
	}
	var wg sync.WaitGroup
	m := startMeter(conns)
	for ci, c := range sys.clients {
		wg.Add(1)
		go func(ci int, c *tasclient.Client) {
			defer wg.Done()
			recs[ci].err = openLoop(c, sched[ci], m, ci, sleepers[ci], tr.lane(), &recs[ci])
		}(ci, c)
	}
	wg.Wait()
	sys.tally(recs)
	return o, finishNet(sys, recs, o, m)
}

// openLoop sends connection w's schedule, due times counted from the
// meter's start.
func openLoop(c *tasclient.Client, sched []openCycle, m *meter, w int, sl *sleeper, ln *lane, rec *connRec) error {
	rec.lag = make([]float64, 0, len(sched))
	for i, oc := range sched {
		due := m.t0.Add(oc.due)
		if d := time.Until(due); d > 0 {
			if err := sl.sleep(d); err != nil {
				return err
			}
		}
		rec.lag = append(rec.lag, nsSince(due))
		sp := ln.begin("loadgen.cycle", -1, uint64(i))
		if err := rec.do(c, openCycles[oc.lock], ln, sp, uint64(i), m, w, false); err != nil {
			return err
		}
		ln.end(sp)
		now := time.Now()
		rec.lat.add(m, now, float64(now.Sub(due)))
	}
	return nil
}

// finishNet closes the metered window, checks a net run's outputs
// against the server's STATS and tears the system down.
func finishNet(sys *netSys, recs []connRec, o *outcome, m *meter) error {
	o.collect(recs)
	o.finish(m)
	if err := firstErr(recs); err != nil {
		sys.close()
		return err
	}
	st, err := sys.settledStats()
	if err != nil {
		sys.close()
		return err
	}
	sys.final = &st
	o.breaches = append(o.breaches, verifyNet(st, sys.acquires, sys.releases)...)
	return sys.close()
}

// settledStats polls STATS until the arena's live slot count is back to
// one per named lock or slotReclaimLimit passes, and returns the last
// snapshot; verifyNet judges it.
func (s *netSys) settledStats() (wire.Stats, error) {
	deadline := time.Now().Add(slotReclaimLimit)
	for {
		st, err := s.stats()
		if err != nil || slotsOutstanding(st) == int64(len(st.Locks)) || time.Now().After(deadline) {
			return st, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func slotsOutstanding(st wire.Stats) int64 {
	return int64(st.Arena.Hits+st.Arena.Steals+st.Arena.Misses) - int64(st.Arena.Puts)
}

// verifyNet checks a server's STATS against what the generator sent:
// no exclusion violations, every ACQUIRE and RELEASE counted, one
// completed round per acquisition, and one live arena slot per lock.
func verifyNet(st wire.Stats, acquires, releases int64) []string {
	var out []string
	if st.Violations != 0 {
		out = append(out, fmt.Sprintf("server counted %d mutual-exclusion violations", st.Violations))
	}
	if got := st.Ops[wire.OpName(wire.OpAcquire)]; got != uint64(acquires) {
		out = append(out, fmt.Sprintf("server counted %d ACQUIREs, generator sent %d", got, acquires))
	}
	if got := st.Ops[wire.OpName(wire.OpRelease)]; got != uint64(releases) {
		out = append(out, fmt.Sprintf("server counted %d RELEASEs, generator sent %d", got, releases))
	}
	if st.Truncated {
		out = append(out, "STATS lock list truncated; rounds cannot be accounted")
	} else {
		var rounds uint64
		for _, l := range st.Locks {
			rounds += l.Rounds
		}
		if rounds != uint64(acquires) {
			out = append(out, fmt.Sprintf("server completed %d rounds for %d acquisitions", rounds, acquires))
		}
		if got, want := slotsOutstanding(st), int64(len(st.Locks)); got != want {
			out = append(out, fmt.Sprintf("%d arena slots outstanding, want one per lock (%d)", got, want))
		}
	}
	return out
}

// memListener is an in-memory net.Listener: each dial is a net.Pipe
// whose server end counts the Read and Write calls the server makes.
type memListener struct {
	conns  chan net.Conn
	done   chan struct{}
	once   sync.Once
	reads  atomic.Int64
	writes atomic.Int64
}

func newMemListener() *memListener {
	return &memListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

func (l *memListener) dial() (net.Conn, error) {
	client, srv := net.Pipe()
	select {
	case l.conns <- &countingConn{Conn: srv, l: l}:
		return client, nil
	case <-l.done:
		client.Close()
		srv.Close()
		return nil, net.ErrClosed
	}
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

type countingConn struct {
	net.Conn
	l *memListener
}

func (c *countingConn) Read(b []byte) (int, error) {
	c.l.reads.Add(1)
	return c.Conn.Read(b)
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(b)
}
