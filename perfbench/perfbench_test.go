package main

import (
	"encoding/json"
	"maps"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/shm"
	"repro/internal/wire"
)

// tiny is a short run of workload w with two load goroutines.
func tiny(w string) config {
	return config{workload: w, seed: 7, dur: 300 * time.Millisecond, procs: 2, spans: os.DevNull}
}

// declared reads the metric names BENCHMARK.json promises for one mode.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var list []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &list); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

// checkMetrics demands exactly the declared metrics, with their units,
// every value a finite number (and, end to end, a positive one).
func checkMetrics(t *testing.T, got map[string]metric, want map[string]string, positive bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics printed, %d declared", len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case m.Unit != unit:
			t.Errorf("metric %s unit %q, declared %q", name, m.Unit, unit)
		case m.Value != m.Value || positive && m.Value <= 0:
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	e2e := declared(t, "end_to_end")
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			rep, err := run(tiny(name))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			checkMetrics(t, rep.Metrics, e2e, true)
		})
	}
}

func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("the layer ladder takes several seconds")
	}
	rep, err := run(config{workload: "net_pairs", seed: 7, dur: 300 * time.Millisecond, procs: 2, trace: true,
		spans: t.TempDir() + "/spans.jsonl"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatal("traced run failed its checks")
	}
	checkMetrics(t, rep.Metrics, declared(t, "per_layer"), false)
	for _, share := range []string{"wire", "tasclient", "arena", "server"} {
		if v := rep.Metrics["ladder."+share+"_share"].Value; v <= 0 || v >= 1 {
			t.Errorf("ladder.%s_share = %v, want a share in (0,1)", share, v)
		}
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	a, b, c := openSchedule(3, 2, time.Second), openSchedule(3, 2, time.Second), openSchedule(4, 2, time.Second)
	if len(a[0]) != len(b[0]) || a[0][5].due != b[0][5].due || a[1][9].lock != b[1][9].lock {
		t.Error("net_open schedule differs for one seed")
	}
	if len(a[0]) == len(c[0]) && a[0][5].due == c[0][5].due {
		t.Error("net_open schedule ignores the seed")
	}
	p, q := pairsShape(3, 2), pairsShape(4, 2)
	if p[0][0][0][0].Name == q[0][0][0][0].Name && p[1][0][0][0].Name == q[1][0][0][0].Name {
		t.Error("net_pairs name order ignores the seed")
	}
}

// noExclusion grants every Lock at once: a forged double grant.
type noExclusion struct{ tok *atomic.Uint64 }

func (l noExclusion) Lock() (uint64, error) { return l.tok.Add(1), nil }
func (noExclusion) Unlock(uint64) error     { return nil }

// staleTokens excludes correctly but hands out one token forever.
type staleTokens struct{ mu *sync.Mutex }

func (l staleTokens) Lock() (uint64, error) { l.mu.Lock(); return 1, nil }
func (l staleTokens) Unlock(uint64) error   { l.mu.Unlock(); return nil }

func lockersOf(g int, mk func() locker) []locker {
	ls := make([]locker, g)
	for i := range ls {
		ls[i] = mk()
	}
	return ls
}

func wantBreach(t *testing.T, breaches []string, substr string) {
	t.Helper()
	for _, b := range breaches {
		if strings.Contains(b, substr) {
			return
		}
	}
	t.Errorf("no breach mentioning %q in %q", substr, breaches)
}

func TestCanaryForgedDoubleGrant(t *testing.T) {
	var tok atomic.Uint64
	o, err := mutexRun(tiny("mutex_contended"), func(_ int64, g int) ([]locker, error) {
		return lockersOf(g, func() locker { return noExclusion{&tok} }), nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantBreach(t, o.breaches, "double grant")
	if o.failed == 0 {
		t.Error("double grants not counted as failed ops")
	}
}

func TestCanaryStaleFencingToken(t *testing.T) {
	var mu sync.Mutex
	o, err := mutexRun(tiny("mutex_contended"), func(_ int64, g int) ([]locker, error) {
		return lockersOf(g, func() locker { return staleTokens{&mu} }), nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantBreach(t, o.breaches, "fencing token failed to increase")
}

func TestCanaryLostCriticalSection(t *testing.T) {
	chk := &csCheck{guarded: 41}
	wantBreach(t, verifyMutex(chk, 42, 0), "critical-section counter")
	if b := verifyMutex(&csCheck{guarded: 42}, 42, 0); len(b) != 0 {
		t.Errorf("clean bookkeeping flagged: %q", b)
	}
}

// TestCanaryNetChecks runs net_pairs for real, then forges the server's
// STATS and the client's results the ways a broken server would show.
func TestCanaryNetChecks(t *testing.T) {
	cfg := tiny("net_pairs")
	sh := pairsShape(cfg.seed, 2)
	o := &outcome{}
	sys, err := setupNet(cfg, sh, o)
	if err != nil {
		t.Fatal(err)
	}
	m := startMeter(len(sys.clients))
	var recs []connRec
	timed(cfg.dur, func(stop *atomic.Bool) { recs = sys.closedLoop(sh, stop, 0, nil, m) })
	if err := finishNet(sys, recs, o, m); err != nil {
		t.Fatal(err)
	}
	if len(o.breaches) != 0 {
		t.Fatalf("clean run breached: %q", o.breaches)
	}
	st, acq, rel := *sys.final, sys.acquires, sys.releases
	forge := func(f func(*wire.Stats)) []string {
		s := st
		s.Ops = maps.Clone(st.Ops)
		s.Locks = append([]wire.LockStats(nil), st.Locks...)
		f(&s)
		return verifyNet(s, acq, rel)
	}
	wantBreach(t, forge(func(s *wire.Stats) { s.Violations = 1 }), "mutual-exclusion violations")
	wantBreach(t, forge(func(s *wire.Stats) { s.Ops["RELEASE"]-- }), "RELEASEs")
	wantBreach(t, forge(func(s *wire.Stats) { s.Ops["ACQUIRE"]++ }), "ACQUIREs")
	wantBreach(t, forge(func(s *wire.Stats) { s.Locks[0].Rounds++ }), "rounds")
	wantBreach(t, forge(func(s *wire.Stats) { s.Arena.Puts-- }), "arena slots outstanding")

	bad := &outcome{}
	bad.collect([]connRec{{requests: 32, failed: 1}})
	wantBreach(t, bad.breaches, "answered other than OK")
}

// everyoneWins is an elector with no exclusion at all.
type everyoneWins struct{}

func (everyoneWins) Elect(shm.Handle) bool { return true }

func TestCanaryTwoWinners(t *testing.T) {
	cell := simCell{"everyone-wins", 4, 10, func(shm.Space, int) (harness.Elector, func(int) bool) {
		return everyoneWins{}, nil
	}}
	o, err := simSweep(tiny("sim_sweep"), []simCell{cell}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantBreach(t, o.breaches, "winners")
	if o.failed == 0 {
		t.Error("trials with two winners not counted as failed ops")
	}
}

// hiddenState wins correctly but takes extra steps that depend on how
// many electors the process built before it: harness.Run builds one per
// worker, so its executions depend on the worker count, not only on the
// trial seed.
type hiddenState struct {
	tasElector
	reg   shm.Register
	extra int
}

var builds atomic.Int64

func (e hiddenState) Elect(h shm.Handle) bool {
	for i := 0; i < e.extra; i++ {
		h.Read(e.reg)
	}
	return e.tasElector.Elect(h)
}

func TestCanaryWorkerCountChangesOutput(t *testing.T) {
	cell := simCell{"hidden-state", 4, 40, func(s shm.Space, n int) (harness.Elector, func(int) bool) {
		le, _ := ratraceFactory(s, n)
		return hiddenState{le.(tasElector), s.NewRegister(0), int(builds.Add(1))}, nil
	}}
	o, err := simSweep(tiny("sim_sweep"), []simCell{cell}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantBreach(t, o.breaches, "StepStats differ")
}
