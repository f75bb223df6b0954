// Experiments mode: the paper's claims as one table of checked rows.
//
// Each row names a theorem, the elector it is about (from the one factory
// list below), the adversary the theorem holds against, the swept
// variable, the currency measured and the shape the measurements must
// have. The driver measures every selected row, prints one table per row
// with its verdict, and fails if any row is violated. Harness rows all
// go through one harness.Run sweep (runner.cell); the bespoke
// measurements (group election, covering, Yao, balls-in-bins) go through
// the same shape checks.
//
// A time bound means something only relative to an adversary class
// (Lynch–Saias–Segala), so a row's title is built from the adversary the
// row runs, and the adversary's information class is read from the
// sim.Adversary itself.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/aa"
	"repro/internal/agtv"
	"repro/internal/combiner"
	"repro/internal/complexity"
	"repro/internal/core"
	"repro/internal/groupelect"
	"repro/internal/harness"
	"repro/internal/lowerbound"
	"repro/internal/ratrace"
	"repro/internal/rng"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tas"
	"repro/internal/twoproc"
)

// reportSchema versions the -cxout JSON.
const reportSchema = "randtas-bench-complexity/v2"

type config struct {
	trials int
	seed   int64
	quick  bool
}

// --- electors ---------------------------------------------------------------

// electFunc adapts an election closure to harness.Elector.
type electFunc func(h shm.Handle) bool

func (f electFunc) Elect(h shm.Handle) bool { return f(h) }

// tasOver wraps a leader election as a TAS object; the unique caller that
// reads 0 wins.
func tasOver(s shm.Space, le tas.LeaderElector) harness.Elector {
	t := tas.New(s, le)
	return electFunc(func(h shm.Handle) bool { return t.TAS(h) == 0 })
}

// electors is the one factory list every row draws from. The second
// result is the static layout an attack adversary may use.
var electors = map[string]harness.Factory{
	"fig1": func(s shm.Space, n int) (harness.Elector, func(int) bool) {
		g := groupelect.NewFig1(s, n)
		arr := map[int]bool{}
		for _, id := range g.ArrayRegisterIDs() {
			arr[id] = true
		}
		return g, func(r int) bool { return arr[r] }
	},
	// The balanced sifter is tuned to its contention, so it is swept at
	// k = n.
	"sifter": func(s shm.Space, n int) (harness.Elector, func(int) bool) {
		return groupelect.NewSifter(s, groupelect.SifterPi(n)), nil
	},
	"logstar": func(s shm.Space, n int) (harness.Elector, func(int) bool) {
		le := core.NewLogStar(s, n)
		return le, le.IsArrayRegister
	},
	"sifting": func(s shm.Space, n int) (harness.Elector, func(int) bool) {
		return core.NewSifting(s, n), nil
	},
	"adaptive-sifting": func(s shm.Space, n int) (harness.Elector, func(int) bool) {
		return core.NewAdaptiveSifting(s, n), nil
	},
	"ratrace-se": func(s shm.Space, n int) (harness.Elector, func(int) bool) {
		return ratrace.NewSpaceEfficient(s, n), nil
	},
	"ratrace-original": func(s shm.Space, n int) (harness.Elector, func(int) bool) {
		return ratrace.NewOriginal(s, n), nil
	},
	"agtv": func(s shm.Space, n int) (harness.Elector, func(int) bool) {
		return agtv.New(s, n), nil
	},
	"aa": func(s shm.Space, n int) (harness.Elector, func(int) bool) {
		return aa.NewSpaceEfficient(s, n), nil
	},
	"combined": func(s shm.Space, n int) (harness.Elector, func(int) bool) {
		chain := core.NewLogStar(s, n)
		return combiner.New(s, ratrace.NewSpaceEfficient(s, n), chain), chain.IsArrayRegister
	},
	"twoproc": func(s shm.Space, _ int) (harness.Elector, func(int) bool) {
		le := twoproc.New(s)
		return electFunc(func(h shm.Handle) bool { return le.Elect(h, h.ID()) }), nil
	},
	"tasfast": func(s shm.Space, n int) (harness.Elector, func(int) bool) {
		inner := core.NewLogStar(s, n)
		return tasOver(s, tas.NewFastPath(s, inner)), inner.IsArrayRegister
	},
	"tas-plain": func(s shm.Space, n int) (harness.Elector, func(int) bool) {
		inner := core.NewLogStar(s, n)
		return tasOver(s, inner), inner.IsArrayRegister
	},
	"tas-ratrace": func(s shm.Space, n int) (harness.Elector, func(int) bool) {
		return tasOver(s, ratrace.NewSpaceEfficient(s, n)), nil
	},
	"tas-agtv": func(s shm.Space, n int) (harness.Elector, func(int) bool) {
		return tasOver(s, agtv.New(s, n)), nil
	},
}

func factory(name string) (harness.Factory, error) {
	f, ok := electors[name]
	if !ok {
		return nil, fmt.Errorf("no elector %q in the factory list", name)
	}
	return f, nil
}

// --- adversaries --------------------------------------------------------------

// adversary is a named schedule. mk is nil for the bespoke measurements
// that construct their schedules themselves (covering, Yao, descents).
type adversary struct {
	strategy string
	mk       harness.AdversaryFactory
}

// String names the strategy and, where the row runs a sim.Adversary, the
// information class that adversary declares.
func (a adversary) String() string {
	if a.mk == nil {
		return a.strategy
	}
	return fmt.Sprintf("%s (%s)", a.strategy, a.mk(0, nil).Visibility())
}

var (
	randomOblivious = adversary{"random", harness.Oblivious(func(seed int64) sim.Adversary { return sim.NewRandomOblivious(seed) })}
	roundRobin      = adversary{"round-robin", harness.Oblivious(func(int64) sim.Adversary { return sim.NewRoundRobin() })}
	lockstep        = adversary{"lockstep", harness.Oblivious(func(int64) sim.Adversary { return sim.NewLockstep() })}
	soloFirst       = adversary{"solo-first", harness.Oblivious(func(int64) sim.Adversary { return sim.NewSoloFirst() })}
	readersFirst    = adversary{"readers-first", harness.Oblivious(func(int64) sim.Adversary { return sim.NewReadersFirst() })}
	ascending       = adversary{"ascending-location", func(_ int64, isArray func(int) bool) sim.Adversary {
		return sim.NewAscendingLocation(isArray)
	}}
	coveringAdv  = adversary{strategy: "covering adversary (Section 5)"}
	allSchedules = adversary{strategy: "every oblivious schedule in S_t"}
	noSchedule   = adversary{strategy: "none: independent uniform descents"}
)

// --- sweeps -------------------------------------------------------------------

type sweep struct {
	label string // how a title names the sweep
	x     string // header of the swept variable
	xs    []int
	quick int // leading xs kept under -quick; 0 keeps them all
	// at maps x to capacity n and contention k (harness rows only).
	at func(x int) (n, k int)
}

func (s sweep) points(quick bool) []int {
	if quick && s.quick > 0 {
		return s.xs[:s.quick]
	}
	return s.xs
}

func kAt(n int, xs []int, quick int) sweep {
	return sweep{fmt.Sprintf("k at n=%d", n), "k", xs, quick, func(k int) (int, int) { return n, k }}
}

func kIsN(xs []int, quick int) sweep {
	return sweep{"k = n", "n", xs, quick, func(n int) (int, int) { return n, n }}
}

func solo(xs []int, quick int) sweep {
	return sweep{"n at k = 1", "n", xs, quick, func(n int) (int, int) { return n, 1 }}
}

func over(x string, xs []int, quick int) sweep {
	return sweep{label: x, x: x, xs: xs, quick: quick}
}

// doublings returns 2, 4, ..., max.
func doublings(max int) []int {
	var xs []int
	for n := 2; n <= max; n *= 2 {
		xs = append(xs, n)
	}
	return xs
}

// --- currencies ---------------------------------------------------------------

// currency is what a row measures at one sweep point. cols[0] is the
// series the fit and the space shapes read.
type currency struct {
	name    string
	cols    []string
	measure func(r *runner, c claim, x int) ([]float64, error)
}

func statCurrency(name string, pick func(harness.StepStats) float64) currency {
	return currency{name, []string{name}, func(r *runner, c claim, x int) ([]float64, error) {
		st, err := r.cell(c, x)
		return []float64{pick(st)}, err
	}}
}

var (
	steps     = statCurrency("mean max steps", func(st harness.StepStats) float64 { return st.MeanMax })
	ccRMR     = statCurrency("mean max CC-RMRs", func(st harness.StepStats) float64 { return st.MeanMaxCC })
	dsmRMR    = statCurrency("mean max DSM-RMRs", func(st harness.StepStats) float64 { return st.MeanMaxDSM })
	registers = statCurrency("registers", func(st harness.StepStats) float64 { return float64(st.Registers) })

	elected  = currency{"mean elected", []string{"mean elected"}, measureElected}
	covering = currency{"covering", []string{"covered registers", "groups", "max cover", "violations"}, measureCovering}
	yao      = currency{"P[some process needs >= t steps]", []string{"max P", "schedules"}, measureYao}
	overflow = currency{"overflow fraction", []string{"overflow fraction"}, measureOverflow}
)

// measureElected is the mean number of processes a group election elects.
func measureElected(r *runner, c claim, x int) ([]float64, error) {
	f, err := factory(c.elector)
	if err != nil {
		return nil, err
	}
	n, k := c.sweep.at(x)
	sys := sim.NewSystem(sim.Config{N: k, Seed: r.cfg.seed, Reuse: true})
	defer sys.Release()
	ge, isArray := f(sys, n)
	count := 0
	body := func(h shm.Handle) {
		if ge.Elect(h) {
			count++
		}
	}
	trials := r.trials(c)
	sum := 0
	for t := 0; t < trials; t++ {
		seed := r.cfg.seed + int64(t)
		sys.Reset(seed)
		count = 0
		sys.Run(c.adv.mk(seed+999, isArray), body)
		sum += count
	}
	return []float64{float64(sum) / float64(trials)}, nil
}

// measureCovering runs the Section 5 covering construction at n processes.
func measureCovering(r *runner, c claim, n int) ([]float64, error) {
	f, err := factory(c.elector)
	if err != nil {
		return nil, err
	}
	res := lowerbound.RunCovering(n, r.cfg.seed, func(s shm.Space) func(shm.Handle) {
		le, _ := f(s, n)
		return func(h shm.Handle) { le.Elect(h) }
	})
	return []float64{float64(res.CoveredRegisters), float64(res.Groups),
		float64(res.MaxCoverPerRegister), float64(len(res.Violations))}, nil
}

// measureYao is the Theorem 6.1 experiment at step budget t.
func measureYao(r *runner, c claim, t int) ([]float64, error) {
	p := lowerbound.TwoProcessTimeBound(t, r.trials(c), r.cfg.seed)
	return []float64{p.MaxProb, float64(p.Schedules)}, nil
}

// measureOverflow estimates P[some log n leaf block receives more than
// 4·log n of n uniform descents], the tail that sizes RatRace's
// elimination paths.
func measureOverflow(r *runner, c claim, n int) ([]float64, error) {
	height := int(math.Ceil(math.Log2(float64(n))))
	trials := r.trials(c)
	g := rng.New(uint64(r.cfg.seed) + uint64(n))
	blocks := make([]int, n/height+1)
	exceed := 0
	for t := 0; t < trials; t++ {
		clear(blocks)
		for ball := 0; ball < n; ball++ {
			blocks[int(g.Next()%uint64(n))/height]++
		}
		for _, b := range blocks {
			if b > 4*height {
				exceed++
				break
			}
		}
	}
	return []float64{float64(exceed) / float64(trials)}, nil
}

// --- shapes -------------------------------------------------------------------

type shapeKind int

const (
	reportOnly  shapeKind = iota
	ceiling               // fitted class grows no faster than class
	floor                 // fitted class grows faster than class
	bounded               // every point within every bound
	linear                // max(y/n) ≤ 2·min(y/n)
	superlinear           // max(y/n) > 2·min(y/n)
)

// bound is a per-point check of column col against f(x).
type bound struct {
	col   int
	op    string // "<=", ">=" or "<"
	label string
	f     func(x int) float64
}

func (b bound) holds(v, lim float64) bool {
	switch b.op {
	case "<=":
		return v <= lim
	case ">=":
		return v >= lim
	default:
		return v < lim
	}
}

type shape struct {
	kind   shapeKind
	class  complexity.Class
	bounds []bound
}

func within(bs ...bound) shape { return shape{kind: bounded, bounds: bs} }

// describe states the row's shape in the terms of its currency.
func (c claim) describe() string {
	s := c.shape
	switch s.kind {
	case ceiling:
		return "ceiling " + s.class.String()
	case floor:
		return "floor: grows faster than " + s.class.String()
	case bounded:
		parts := make([]string, len(s.bounds))
		for i, b := range s.bounds {
			parts[i] = fmt.Sprintf("%s %s %s", c.currency.cols[b.col], b.op, b.label)
		}
		return "per point: " + strings.Join(parts, ", ")
	case linear:
		return fmt.Sprintf("linear: max(%[1]s/n) <= 2*min(%[1]s/n)", c.currency.cols[0])
	case superlinear:
		return fmt.Sprintf("superlinear: max(%[1]s/n) > 2*min(%[1]s/n)", c.currency.cols[0])
	default:
		return "report only"
	}
}

// check returns the fit (nil where the shape has none) and every
// violated condition.
func (s shape) check(xs []int, pts [][]float64) (*complexity.Result, []string, error) {
	ys := make([]float64, len(pts))
	for i, p := range pts {
		ys[i] = p[0]
	}
	var fails []string
	switch s.kind {
	case reportOnly:
		if len(xs) < 3 {
			return nil, nil, nil
		}
		fit, err := complexity.FitClasses(xs, ys)
		return &fit, nil, err
	case ceiling, floor:
		fit, err := complexity.FitClasses(xs, ys)
		if err != nil {
			return nil, nil, err
		}
		faster := fit.Best.GrowsFasterThan(s.class)
		if s.kind == ceiling && faster {
			fails = append(fails, fmt.Sprintf("fit %s exceeds the ceiling %s", fit.Best, s.class))
		}
		if s.kind == floor && !faster {
			fails = append(fails, fmt.Sprintf("fit %s does not grow faster than %s", fit.Best, s.class))
		}
		return &fit, fails, nil
	case bounded:
		for i, x := range xs {
			for _, b := range s.bounds {
				if v, lim := pts[i][b.col], b.f(x); !b.holds(v, lim) {
					fails = append(fails, fmt.Sprintf("x=%d: %s not %s %s (%s)", x, num(v), b.op, num(lim), b.label))
				}
			}
		}
	case linear, superlinear:
		lo, hi := math.Inf(1), 0.0
		for i, x := range xs {
			lo, hi = math.Min(lo, ys[i]/float64(x)), math.Max(hi, ys[i]/float64(x))
		}
		if grows := hi > 2*lo; grows != (s.kind == superlinear) {
			fails = append(fails, fmt.Sprintf("y/n spans %s..%s", num(lo), num(hi)))
		}
	}
	return nil, fails, nil
}

// --- the claim table ------------------------------------------------------------

// claim is one row of the table.
type claim struct {
	id       string
	theorem  string
	elector  string
	adv      adversary
	sweep    sweep
	trials   int // per point; 0 takes -trials
	currency currency
	shape    shape
}

func (c claim) name() string { return fmt.Sprintf("%s %s %s", c.id, c.elector, c.currency.name) }

func ceilingOf(cl complexity.Class) shape { return shape{kind: ceiling, class: cl} }
func floorOf(cl complexity.Class) shape   { return shape{kind: floor, class: cl} }

func log2(x int) float64 { return math.Log2(float64(x)) }

// claims is the table: E1–E11 are the paper's experiments, E12 the
// step and RMR growth classes of the TAS objects the library serves.
func claims() []claim {
	stepsK := []int{2, 8, 64, 512, 4096}
	spaceN := []int{4, 8, 16, 32}
	electedAll := bound{0, ">=", "k", func(k int) float64 { return float64(k) }}
	electedFewer := bound{0, "<", "k", func(k int) float64 { return float64(k) }}
	rows := []claim{
		{"E1", "Lemma 2.2: Figure 1 group election", "fig1", randomOblivious,
			kAt(4096, []int{2, 8, 32, 128, 512, 2048}, 3), 0, elected,
			within(bound{0, "<=", "2*log2(k)+6", func(k int) float64 { return 2*log2(k) + 6 }})},
		{"E2", "Theorem 2.3: O(log* k) leader election", "logstar", randomOblivious,
			kAt(4096, stepsK, 3), 0, steps, ceilingOf(complexity.LogLog)},
		{"E2", "Theorem 2.3: O(n) space", "logstar", randomOblivious,
			solo([]int{256, 1024, 4096, 16384}, 0), 1, registers, shape{kind: linear}},
		{"E3", "Section 2.3: sifting, O(log log n) independent of k", "sifting", randomOblivious,
			kAt(4096, stepsK, 3), 0, steps, ceilingOf(complexity.LogLog)},
		{"E3", "Theorem 2.4: adaptive sifting, O(log log k)", "adaptive-sifting", randomOblivious,
			kAt(4096, stepsK, 3), 0, steps, ceilingOf(complexity.LogLog)},
		{"E4", "Section 3: RatRace O(log k) against the adaptive adversary", "ratrace-se", lockstep,
			kAt(1024, []int{2, 8, 64, 256, 1024}, 3), 0, steps, ceilingOf(complexity.Log)},
		{"E4", "Section 3.2: modified RatRace, Θ(n) space", "ratrace-se", randomOblivious,
			solo(spaceN, 0), 1, registers, shape{kind: linear}},
		{"E4", "Section 3.2: original RatRace, Θ(n³) space", "ratrace-original", randomOblivious,
			solo(spaceN, 0), 1, registers, shape{kind: superlinear}},
		{"E5", "Theorem 4.1: the naive log* chain degrades under the attack", "logstar", ascending,
			kIsN([]int{8, 16, 32, 64, 128}, 3), 0, steps, floorOf(complexity.Log)},
		{"E5", "Theorem 4.1: the combination stays O(log k)", "combined", ascending,
			kIsN([]int{8, 16, 32, 64, 128}, 3), 0, steps, ceilingOf(complexity.Log)},
	}
	for _, e := range []string{"logstar", "sifting", "ratrace-se", "agtv"} {
		rows = append(rows, claim{"E6", "Lemma 5.4/Theorem 5.1: space lower bound", e, coveringAdv,
			over("n", []int{8, 16, 32, 64}, 2), 0, covering, within(
				bound{0, ">=", "log2(n)-1", func(n int) float64 { _, b := lowerbound.SpaceBound(n); return float64(b) }},
				bound{1, ">=", "f(n-4)", func(n int) float64 { return float64(lowerbound.F(n, n-4)[n-4]) }},
				bound{2, "<=", "4", func(int) float64 { return 4 }},
				bound{3, "<=", "0", func(int) float64 { return 0 }},
			)})
	}
	rows = append(rows,
		// The loser's shortest path is 6 steps, so the probability is 1
		// up to t = 6 and the bound becomes non-trivial from t = 7.
		claim{"E7", "Theorem 6.1: 2-process TAS time lower bound", "twoproc", allSchedules,
			over("t", []int{1, 2, 3, 4, 5, 6, 7}, 3), 0, yao,
			within(bound{0, ">=", "1/4^t", func(t int) float64 { return math.Pow(0.25, float64(t)) }})},
		claim{"E8", "Claim 3.2: leaf-block occupancy tail (threshold 4*log2 n)", "ratrace leaf blocks", noSchedule,
			over("n", []int{64, 256, 1024}, 0), 1000, overflow,
			within(bound{0, "<=", "1/n^2", func(n int) float64 { return 1 / float64(n*n) }})},
		claim{"E9", "Sections 2.2–2.3: Figure 1 collapses to f(k) = k", "fig1", ascending,
			kAt(1024, []int{8, 32, 128, 512}, 3), 40, elected, within(electedAll)},
		claim{"E9", "Sections 2.2–2.3: the sifter collapses to f(k) = k", "sifter", readersFirst,
			kIsN([]int{8, 32, 128, 512}, 3), 40, elected, within(electedAll)},
		claim{"E9", "Sections 2.2–2.3: Figure 1 under its matched adversary", "fig1", randomOblivious,
			kAt(1024, []int{8, 32, 128, 512}, 3), 40, elected, within(electedFewer)},
		claim{"E9", "Sections 2.2–2.3: the sifter under its matched adversary", "sifter", randomOblivious,
			kIsN([]int{8, 32, 128, 512}, 3), 40, elected, within(electedFewer)},
	)
	// E10 is report-only: at fixed n, AGTV's cost still moves with k,
	// so no class ceiling over k states the comparison.
	for _, e := range []string{"agtv", "ratrace-se", "aa", "sifting", "adaptive-sifting", "logstar", "combined"} {
		rows = append(rows, claim{"E10", "cross-algorithm comparison (report only)", e, randomOblivious,
			kAt(1024, []int{2, 16, 128, 1024}, 3), 40, steps, shape{}})
	}
	for _, a := range []adversary{roundRobin, randomOblivious, lockstep, soloFirst} {
		rows = append(rows, claim{"E11", "Tromp–Vitányi: O(1) against every adversary (report only)", "twoproc", a,
			kIsN([]int{2}, 0), 1000, steps, shape{}})
	}
	// E12: the log* rows gate at O(log log) because over n ≤ 512 log* and
	// log log cannot be told apart; anything fitting log or worse fails.
	// DSM RMRs are reported, never gated — the electors spin on shared
	// registers, which the DSM model charges per iteration.
	ns := doublings(512)
	series := []struct {
		theorem string
		elector string
		sweep   sweep
		ceiling complexity.Class
	}{
		{"uncontended TAS through the splitter doorway: O(1)", "tasfast", solo(ns, 6), complexity.O1},
		{"contended TAS over the log* chain: O(log* k)", "tasfast", kIsN(ns, 6), complexity.LogLog},
		{"TAS over the bare log* chain, no doorway: O(log* k)", "tas-plain", kIsN(ns, 6), complexity.LogLog},
		{"TAS over space-efficient RatRace: O(log k)", "tas-ratrace", kIsN(ns, 6), complexity.Log},
		{"TAS over the AGTV tournament: O(log n)", "tas-agtv", kIsN(ns, 6), complexity.Log},
	}
	for _, s := range series {
		rows = append(rows,
			claim{"E12", s.theorem, s.elector, randomOblivious, s.sweep, 0, steps, ceilingOf(s.ceiling)},
			claim{"E12", s.theorem, s.elector, randomOblivious, s.sweep, 0, ccRMR, ceilingOf(s.ceiling)},
			claim{"E12", s.theorem, s.elector, randomOblivious, s.sweep, 0, dsmRMR, shape{}})
	}
	return rows
}

// --- the driver -----------------------------------------------------------------

type cellKey struct {
	elector, adv string
	n, k, trials int
}

// runner measures rows; harness cells shared between rows run once.
type runner struct {
	cfg   config
	cells map[cellKey]harness.StepStats
}

func newRunner(cfg config) *runner {
	return &runner{cfg: cfg, cells: map[cellKey]harness.StepStats{}}
}

func (r *runner) trials(c claim) int {
	if c.trials > 0 {
		return c.trials
	}
	return r.cfg.trials
}

// cell is the one harness.Run sweep function every harness row uses.
func (r *runner) cell(c claim, x int) (harness.StepStats, error) {
	n, k := c.sweep.at(x)
	key := cellKey{c.elector, c.adv.strategy, n, k, r.trials(c)}
	if st, ok := r.cells[key]; ok {
		return st, nil
	}
	f, err := factory(c.elector)
	if err != nil {
		return harness.StepStats{}, err
	}
	st, err := harness.Run(harness.Spec{
		Algorithm: c.elector,
		Factory:   f,
		N:         n,
		K:         k,
		Trials:    key.trials,
		BaseSeed:  r.cfg.seed,
		Adversary: c.adv.mk,
		CountRMRs: true,
	})
	if err != nil {
		return st, err
	}
	r.cells[key] = st
	return st, nil
}

// result is one measured and checked row.
type result struct {
	claim
	xs    []int
	pts   [][]float64
	fit   *complexity.Result
	fails []string
}

func (r *runner) evaluate(c claim) (result, error) {
	res := result{claim: c}
	for _, x := range c.sweep.points(r.cfg.quick) {
		vals, err := c.currency.measure(r, c, x)
		if err != nil {
			return res, fmt.Errorf("%s: %w", c.name(), err)
		}
		res.xs = append(res.xs, x)
		res.pts = append(res.pts, vals)
	}
	var err error
	res.fit, res.fails, err = c.shape.check(res.xs, res.pts)
	if err != nil {
		return res, fmt.Errorf("%s: %w", c.name(), err)
	}
	return res, nil
}

// num formats a measurement: integers exactly, the rest to four
// significant digits.
func num(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

func (res result) table() harness.Table {
	c := res.claim
	tbl := harness.Table{
		Title:   fmt.Sprintf("%s %s: %s of %s, %s, under %s", c.id, c.theorem, c.currency.name, c.elector, c.sweep.label, c.adv),
		Headers: append([]string{c.sweep.x}, c.currency.cols...),
	}
	for _, b := range c.shape.bounds {
		tbl.Headers = append(tbl.Headers, fmt.Sprintf("%s %s", b.op, b.label))
	}
	ratio := c.shape.kind == linear || c.shape.kind == superlinear
	if ratio {
		tbl.Headers = append(tbl.Headers, c.currency.cols[0]+"/n")
	}
	for i, x := range res.xs {
		row := []interface{}{x}
		for _, v := range res.pts[i] {
			row = append(row, num(v))
		}
		for _, b := range c.shape.bounds {
			row = append(row, num(b.f(x)))
		}
		if ratio {
			row = append(row, num(res.pts[i][0]/float64(x)))
		}
		tbl.AddRow(row...)
	}
	note := c.describe()
	switch {
	case len(res.fails) > 0:
		note += " — VIOLATED: " + strings.Join(res.fails, "; ")
	case c.shape.kind != reportOnly:
		note += " — PASS"
	}
	if res.fit != nil {
		note += " — fit " + fitLabel(*res.fit)
	}
	tbl.Notes = []string{note}
	return tbl
}

func fitLabel(r complexity.Result) string {
	if r.Ambiguous {
		return fmt.Sprintf("%s (margin %.3f, ambiguous)", r.Best, r.Margin)
	}
	return fmt.Sprintf("%s (margin %.3f)", r.Best, r.Margin)
}

type fitJSON struct {
	Class     string  `json:"class"`
	A         float64 `json:"a"`
	B         float64 `json:"b"`
	NRMSE     float64 `json:"nrmse"`
	Margin    float64 `json:"margin"`
	Ambiguous bool    `json:"ambiguous"`
}

type rowJSON struct {
	ID         string      `json:"id"`
	Theorem    string      `json:"theorem"`
	Elector    string      `json:"elector"`
	Adversary  string      `json:"adversary"`
	Sweep      string      `json:"sweep"`
	Currency   string      `json:"currency"`
	Shape      string      `json:"shape"`
	Columns    []string    `json:"columns"`
	Points     [][]float64 `json:"points"` // one value per column
	Fit        *fitJSON    `json:"fit,omitempty"`
	Pass       bool        `json:"pass"`
	Violations []string    `json:"violations,omitempty"`
}

type reportJSON struct {
	Schema string    `json:"schema"`
	Seed   int64     `json:"seed"`
	Trials int       `json:"trials"`
	Quick  bool      `json:"quick"`
	Rows   []rowJSON `json:"rows"`
	Pass   bool      `json:"pass"`
}

func (res result) json() rowJSON {
	c := res.claim
	row := rowJSON{
		ID: c.id, Theorem: c.theorem, Elector: c.elector, Adversary: c.adv.String(),
		Sweep: c.sweep.label, Currency: c.currency.name, Shape: c.describe(),
		Columns: append([]string{c.sweep.x}, c.currency.cols...),
		Pass:    len(res.fails) == 0, Violations: res.fails,
	}
	for i, x := range res.xs {
		row.Points = append(row.Points, append([]float64{float64(x)}, res.pts[i]...))
	}
	if f := res.fit; f != nil {
		row.Fit = &fitJSON{Class: f.Best.String(), A: f.BestFit.A, B: f.BestFit.B,
			NRMSE: f.BestFit.NRMSE, Margin: f.Margin, Ambiguous: f.Ambiguous}
	}
	return row
}

// runClaims measures and checks every row whose id matches experiment
// ("all" for every row), prints one table per row, writes the JSON report
// to out unless out is empty, and fails listing every violated row.
func runClaims(cfg config, experiment, out string) error {
	r := newRunner(cfg)
	report := reportJSON{Schema: reportSchema, Seed: cfg.seed, Trials: cfg.trials, Quick: cfg.quick, Pass: true}
	var violated []string
	for _, c := range claims() {
		if !strings.EqualFold(experiment, "all") && !strings.EqualFold(experiment, c.id) {
			continue
		}
		res, err := r.evaluate(c)
		if err != nil {
			return err
		}
		tbl := res.table()
		fmt.Println(tbl.String())
		if len(res.fails) > 0 {
			violated = append(violated, fmt.Sprintf("%s (%s): %s", res.name(), c.theorem, strings.Join(res.fails, "; ")))
			report.Pass = false
		}
		report.Rows = append(report.Rows, res.json())
	}
	if len(report.Rows) == 0 {
		return fmt.Errorf("unknown experiment %q (want E1..E12 or all)", experiment)
	}
	if out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	if len(violated) > 0 {
		return fmt.Errorf("%d of %d claim rows violated:\n  %s", len(violated), len(report.Rows), strings.Join(violated, "\n  "))
	}
	fmt.Printf("claims: all %d rows hold\n", len(report.Rows))
	return nil
}
