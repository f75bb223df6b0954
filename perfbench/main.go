// Command perfbench is the repository's benchmark: one process runs one
// workload against the test-and-set stack, checks its outputs, and
// prints every metric by name with its unit.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload net_pairs|net_open|mutex_contended|sim_sweep
//	          --seed N --seconds S --trace 0|1 [--spans FILE]
//
// With --trace 0 the last line of standard output is the end-to-end
// result. With --trace 1 the workload runs again with one in-memory span
// per benchmark call into a layer, then the layer ladder runs, and the
// last line carries the per-layer metrics; the spans are written to
// --spans when the run ends. The exit code is non-zero when any output
// check failed. README.md defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	spans    string
	// procs caps connections, goroutines and sim workers: the benchmark
	// shares a small box, so it never runs more than one CPU's worth of
	// load generators per CPU.
	procs int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is the provenance line printed before the result.
type runInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Transport  string  `json:"transport"`
}

var workloads = map[string]func(config, *tracer) (*outcome, error){
	"net_pairs":       runNetPairs,
	"net_open":        runNetOpen,
	"mutex_contended": runMutexContended,
	"sim_sweep":       runSimSweep,
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "net_pairs, net_open, mutex_contended or sim_sweep")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&seconds, "seconds", 10, "measured duration of the run")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", "", "file for the traced run's spans (default .bench_build/spans/<workload>-<seed>.jsonl)")
	flag.Parse()
	cfg.dur = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.procs = runtime.GOMAXPROCS(0)
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	if _, ok := workloads[cfg.workload]; !ok || cfg.dur <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, seconds, trace)
		os.Exit(2)
	}

	info := runInfo{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: seconds, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: cfg.procs, GoVersion: runtime.Version(),
		Transport: transportOf(cfg.workload, cfg.trace),
	}
	line, _ := json.Marshal(info)
	fmt.Printf("# run %s\n", line)

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, _ = json.Marshal(rep)
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// transportOf says whether the run's traffic crossed loopback TCP, an
// in-memory pipe, or no transport at all.
func transportOf(workload string, traced bool) string {
	t := "none (in-process)"
	if workload == "net_pairs" || workload == "net_open" {
		t = "loopback-tcp"
	}
	if traced {
		t += "; ladder rungs: loopback-tcp and in-memory pipe"
	}
	return t
}

// run executes one invocation: the workload untraced (end-to-end
// metrics) or traced followed by the layer ladder (per-layer metrics).
func run(cfg config) (report, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	out, err := workloads[cfg.workload](cfg, tr)
	if err != nil {
		return report{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep := report{
		Correct:   len(out.breaches) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
	}
	for _, b := range out.breaches {
		fmt.Fprintf(os.Stderr, "perfbench: %s: CHECK FAILED: %s\n", cfg.workload, b)
	}
	if !cfg.trace {
		rep.Metrics = out.endToEnd()
		return rep, nil
	}
	layers, err := runLadder(cfg, tr, out)
	if err != nil {
		return report{}, fmt.Errorf("%s ladder: %w", cfg.workload, err)
	}
	rep.Metrics = layers
	if err := tr.write(cfg.spans); err != nil {
		return report{}, err
	}
	return rep, nil
}
