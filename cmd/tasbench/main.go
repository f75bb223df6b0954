// Command tasbench checks the paper's claims, drills the tasd lock
// service for correctness and runs the deterministic whole-service
// simulation.
//
// Usage:
//
//	tasbench [-mode=experiments] [-experiment all|E1|...|E12] [-trials N] [-seed S] [-quick]
//	         [-cxout FILE]
//	tasbench -mode=net -addr host:port -scenario churn|storm|disconnect|flood
//	         [-clients C] [-ttl TTL] [-duration D]
//	tasbench -mode=hold -addr host:port [-holdlock NAME] [-ttl TTL] [-holdfor D]
//	tasbench -mode=dst [-dstseeds N] [-seed S] [-dstscenario all|mixed|...]
//	         [-dstops N] [-dstv]
//
// Experiments mode (claims.go) runs the claim table: every row pairs a
// theorem of Giakkoupis & Woelfel (PODC 2012) with the elector, the
// adversary and the currency it is about and a shape the measurements
// must have — a growth-class ceiling or floor, a per-point bound or
// linear space. It prints one table per row and exits 1 listing every
// violated row; -cxout writes the rows as JSON. E1–E11 are the paper's
// experiments, E12 the step and RMR growth of the TAS objects. Net mode
// (net.go) runs pass/fail correctness drills against a running tasd lock
// daemon; hold mode is its one-lock smoke client; dst mode (dst.go)
// replays a seed corpus of simulated service runs. The in-process mutex,
// the simulator engine and tasd over loopback TCP are measured end to end
// by the perfbench module (bash perfbench/run.sh) and by go test -bench.
package main

import (
	"flag"
	"time"
)

func main() {
	var (
		mode       = flag.String("mode", "experiments", "'experiments' (the checked claim table), 'net' (tasd correctness drill), 'hold' (hold one tasd lock) or 'dst' (deterministic whole-service simulation over a seed corpus)")
		experiment = flag.String("experiment", "all", "experiment id (E1..E12) or 'all'")
		trials     = flag.Int("trials", 100, "Monte-Carlo trials per sweep point (rows with a fixed count ignore it)")
		seed       = flag.Int64("seed", 1, "base random seed")
		quick      = flag.Bool("quick", false, "smaller sweeps for a fast smoke run")

		duration = flag.Duration("duration", 2*time.Second, "net: drill duration")
		clients  = flag.Int("clients", 8, "net: concurrent client connections")
		scenario = flag.String("scenario", "", "net: 'churn' (abandoned holds recovered by lease expiry), 'storm' (stale-token fencing storm), 'disconnect' (clients hang up mid-ACQUIRE; asserts abort + slot reclaim) or 'flood' (open-loop overload against the server's admission envelope; asserts shedding + goodput + bounds)")
		ttl      = flag.Duration("ttl", 0, "net/hold: lease TTL attached to acquires (0 = no lease)")
		netAddr  = flag.String("addr", "", "net/hold: address of the running tasd (required)")

		holdLock = flag.String("holdlock", "smoke/hold", "hold: lock name to acquire")
		holdFor  = flag.Duration("holdfor", 0, "hold: how long to sit on the lock before releasing")

		cxOut = flag.String("cxout", "", "experiments: JSON report path ('' = no file)")

		dstSeeds    = flag.Int("dstseeds", 64, "dst: corpus size (seeds base, base+1, ...)")
		dstScenario = flag.String("dstscenario", "all", "dst: scenario ('mixed', 'locks', 'chaos', 'elect', 'fuzz', 'abortstorm', 'overload') or 'all' to rotate")
		dstOps      = flag.Int("dstops", 0, "dst: operations per client (0 = scenario default)")
		dstVerbose  = flag.Bool("dstv", false, "dst: print one line per seed")
	)
	flag.Parse()

	switch *mode {
	case "dst":
		err := runDST(dstConfig{
			seeds:    *dstSeeds,
			base:     uint64(*seed),
			scenario: *dstScenario,
			ops:      *dstOps,
			verbose:  *dstVerbose,
		})
		if err != nil {
			fatalf("tasbench: %v", err)
		}
		return
	case "hold":
		if err := runHold(*netAddr, *holdLock, *ttl, *holdFor); err != nil {
			fatalf("tasbench: %v", err)
		}
		return
	case "net":
		err := runNet(netConfig{
			addr:     *netAddr,
			scenario: *scenario,
			clients:  *clients,
			ttl:      *ttl,
			duration: *duration,
		})
		if err != nil {
			fatalf("tasbench: %v", err)
		}
		return
	case "experiments":
		// fall through to the claim table below
	default:
		fatalf("tasbench: unknown -mode %q (want 'experiments', 'net', 'hold' or 'dst')", *mode)
	}

	err := runClaims(config{trials: *trials, seed: *seed, quick: *quick}, *experiment, *cxOut)
	if err != nil {
		fatalf("tasbench: %v", err)
	}
}
