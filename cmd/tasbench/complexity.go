// Complexity mode: the paper's bounds as an executable gate.
//
// The sweep runs each elector across a doubling range of n with the
// simulator's RMR accounting enabled, fits the measured growth of the
// expected max step count and expected max RMR count (CC and DSM models)
// against the candidate classes of internal/complexity, and fails when a
// gated series fits a class above its ceiling. The ceilings encode the
// claims, not point estimates: the TAS fast path's solo cost must be O(1),
// its contended step growth sub-logarithmic (the paper's log* k — over
// feasible sweep ranges log* and log log are empirically inseparable, so
// the gate draws the line at "anything ≥ log fails"), and RatRace/AGTV
// must stay within O(log).
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/agtv"
	"repro/internal/complexity"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ratrace"
	"repro/internal/shm"
	"repro/internal/tas"
)

type complexityConfig struct {
	seed   int64
	trials int
	quick  bool
	out    string
}

// tasElector adapts a TAS object to the harness's Elector interface: the
// unique caller that receives 0 is the winner.
type tasElector struct{ t *tas.TAS }

func (e tasElector) Elect(h shm.Handle) bool { return e.t.TAS(h) == 0 }

func tasFastFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	inner := core.NewLogStar(s, n)
	return tasElector{tas.New(s, tas.NewFastPath(s, inner))}, inner.IsArrayRegister
}

func tasPlainFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	inner := core.NewLogStar(s, n)
	return tasElector{tas.New(s, inner)}, inner.IsArrayRegister
}

func ratraceTASFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	return tasElector{tas.New(s, ratrace.NewSpaceEfficient(s, n))}, nil
}

func agtvTASFactory(s shm.Space, n int) (harness.Elector, func(int) bool) {
	return tasElector{tas.New(s, agtv.New(s, n))}, nil
}

// complexitySeries is one gated sweep: an elector, a contention profile,
// and the ceiling classes its fitted growth must not exceed. DSM RMRs are
// reported but never gated — the electors spin on shared registers, which
// the DSM model charges per iteration, so no sub-linear DSM claim is made.
type complexitySeries struct {
	name    string
	factory harness.Factory
	// k returns the contention for capacity n (identity for the
	// contended sweeps, 1 for the solo sweep).
	k            func(n int) int
	stepsCeiling complexity.Class
	ccCeiling    complexity.Class
	note         string
}

type fitJSON struct {
	Class     string  `json:"class"`
	A         float64 `json:"a"`
	B         float64 `json:"b"`
	NRMSE     float64 `json:"nrmse"`
	Margin    float64 `json:"margin"`
	Ambiguous bool    `json:"ambiguous"`
}

type pointJSON struct {
	N             int     `json:"n"`
	K             int     `json:"k"`
	MeanMaxSteps  float64 `json:"mean_max_steps"`
	P95MaxSteps   int     `json:"p95_max_steps"`
	MeanMaxCC     float64 `json:"mean_max_cc_rmr"`
	MeanMaxDSM    float64 `json:"mean_max_dsm_rmr"`
	MeanTotalStep float64 `json:"mean_total_steps"`
	MeanTotalCC   float64 `json:"mean_total_cc_rmr"`
	MeanTotalDSM  float64 `json:"mean_total_dsm_rmr"`
}

type seriesJSON struct {
	Name         string      `json:"name"`
	Note         string      `json:"note,omitempty"`
	Points       []pointJSON `json:"points"`
	Steps        fitJSON     `json:"steps_fit"`
	CC           fitJSON     `json:"cc_rmr_fit"`
	DSM          fitJSON     `json:"dsm_rmr_fit"`
	StepsCeiling string      `json:"steps_ceiling"`
	CCCeiling    string      `json:"cc_rmr_ceiling"`
	Pass         bool        `json:"pass"`
}

type complexityReport struct {
	Schema   string       `json:"schema"`
	Seed     int64        `json:"seed"`
	Trials   int          `json:"trials"`
	Ns       []int        `json:"ns"`
	Series   []seriesJSON `json:"series"`
	GatePass bool         `json:"gate_pass"`
}

func runComplexity(cfg complexityConfig) error {
	maxN := 512
	trials := cfg.trials
	if cfg.quick {
		maxN = 64
		if trials > 20 {
			trials = 20
		}
	}
	var ns []int
	for n := 2; n <= maxN; n *= 2 {
		ns = append(ns, n)
	}

	series := []complexitySeries{
		{
			name: "tasfast-solo", factory: tasFastFactory, k: func(int) int { return 1 },
			stepsCeiling: complexity.O1, ccCeiling: complexity.O1,
			note: "uncontended TAS through the splitter doorway: O(1) regardless of capacity",
		},
		{
			name: "tasfast", factory: tasFastFactory, k: func(n int) int { return n },
			stepsCeiling: complexity.LogLog, ccCeiling: complexity.LogLog,
			note: "contended TAS over the log* chain: sub-logarithmic (paper: O(log* k) expected)",
		},
		{
			name: "plain", factory: tasPlainFactory, k: func(n int) int { return n },
			stepsCeiling: complexity.LogLog, ccCeiling: complexity.LogLog,
			note: "TAS over the bare log* chain, no doorway: sub-logarithmic",
		},
		{
			name: "ratrace", factory: ratraceTASFactory, k: func(n int) int { return n },
			stepsCeiling: complexity.Log, ccCeiling: complexity.Log,
			note: "TAS over space-efficient RatRace: O(log k) expected",
		},
		{
			name: "agtv", factory: agtvTASFactory, k: func(n int) int { return n },
			stepsCeiling: complexity.Log, ccCeiling: complexity.Log,
			note: "TAS over the AGTV tournament: O(log n)",
		},
	}

	report := complexityReport{
		Schema: "randtas-bench-complexity/v1",
		Seed:   cfg.seed, Trials: trials, Ns: ns,
		GatePass: true,
	}

	for _, sr := range series {
		tbl := harness.Table{
			Title:   fmt.Sprintf("complexity sweep: %s (%s)", sr.name, sr.note),
			Headers: []string{"n", "k", "E[max steps]", "E[max CC-RMR]", "E[max DSM-RMR]"},
		}
		var points []pointJSON
		steps := make([]float64, 0, len(ns))
		ccs := make([]float64, 0, len(ns))
		dsms := make([]float64, 0, len(ns))
		for _, n := range ns {
			st, err := harness.Run(harness.Spec{
				Algorithm: sr.name,
				Factory:   sr.factory,
				N:         n,
				K:         sr.k(n),
				Trials:    trials,
				BaseSeed:  cfg.seed,
				Adversary: harness.Oblivious(randomObl),
				CountRMRs: true,
			})
			if err != nil {
				return err
			}
			steps = append(steps, st.MeanMax)
			ccs = append(ccs, st.MeanMaxCC)
			dsms = append(dsms, st.MeanMaxDSM)
			points = append(points, pointJSON{
				N: n, K: sr.k(n),
				MeanMaxSteps: st.MeanMax, P95MaxSteps: st.P95Max,
				MeanMaxCC: st.MeanMaxCC, MeanMaxDSM: st.MeanMaxDSM,
				MeanTotalStep: st.MeanTotal, MeanTotalCC: st.MeanTotalCC, MeanTotalDSM: st.MeanTotalDSM,
			})
			tbl.AddRow(n, sr.k(n), st.MeanMax, st.MeanMaxCC, st.MeanMaxDSM)
		}

		stepFit, err := complexity.FitClasses(ns, steps)
		if err != nil {
			return fmt.Errorf("%s steps: %w", sr.name, err)
		}
		ccFit, err := complexity.FitClasses(ns, ccs)
		if err != nil {
			return fmt.Errorf("%s cc-rmr: %w", sr.name, err)
		}
		dsmFit, err := complexity.FitClasses(ns, dsms)
		if err != nil {
			return fmt.Errorf("%s dsm-rmr: %w", sr.name, err)
		}

		pass := !stepFit.Best.GrowsFasterThan(sr.stepsCeiling) && !ccFit.Best.GrowsFasterThan(sr.ccCeiling)
		if !pass {
			report.GatePass = false
		}
		tbl.Notes = append(tbl.Notes,
			fmt.Sprintf("steps fit %s (ceiling %s), CC-RMR fit %s (ceiling %s), DSM-RMR fit %s (ungated) — %s",
				fitLabel(stepFit), sr.stepsCeiling, fitLabel(ccFit), sr.ccCeiling, fitLabel(dsmFit), passWord(pass)))
		fmt.Println(tbl.String())

		report.Series = append(report.Series, seriesJSON{
			Name: sr.name, Note: sr.note, Points: points,
			Steps: toFitJSON(stepFit), CC: toFitJSON(ccFit), DSM: toFitJSON(dsmFit),
			StepsCeiling: sr.stepsCeiling.String(), CCCeiling: sr.ccCeiling.String(),
			Pass: pass,
		})
	}

	if cfg.out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", cfg.out)
	}
	if !report.GatePass {
		return fmt.Errorf("complexity gate failed: a fitted class exceeds its ceiling (see table notes)")
	}
	fmt.Println("complexity gate: PASS")
	return nil
}

func fitLabel(r complexity.Result) string {
	if r.Ambiguous {
		return fmt.Sprintf("%s (margin %.3f, ambiguous)", r.Best, r.Margin)
	}
	return fmt.Sprintf("%s (margin %.3f)", r.Best, r.Margin)
}

func passWord(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

func toFitJSON(r complexity.Result) fitJSON {
	return fitJSON{
		Class: r.Best.String(),
		A:     r.BestFit.A, B: r.BestFit.B,
		NRMSE: r.BestFit.NRMSE, Margin: r.Margin, Ambiguous: r.Ambiguous,
	}
}
