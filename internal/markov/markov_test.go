package markov

import (
	"testing"

	"repro/internal/rng"
)

// TestIterationsToZeroFig1: the deterministic descent under the Lemma 2.2
// rate behaves like log*: tiny and nearly flat.
func TestIterationsToZeroFig1(t *testing.T) {
	small := IterationsToZero(Fig1Rate, 16, 1000)
	big := IterationsToZero(Fig1Rate, 1<<20, 1000)
	if big > small+16 {
		t.Errorf("Fig1 descent not log*-flat: n=16→%d, n=2^20→%d", small, big)
	}
	if big > 30 {
		t.Errorf("Fig1 descent too long: %d", big)
	}
}

// TestIterationsToZeroSifter: the sifter rate gives Θ(log log n) descent.
func TestIterationsToZeroSifter(t *testing.T) {
	d256 := IterationsToZero(SifterRate, 256, 1000)
	d64k := IterationsToZero(SifterRate, 1<<16, 1000)
	d4g := IterationsToZero(SifterRate, 1<<32, 1000)
	if !(d256 <= d64k && d64k <= d4g) {
		t.Errorf("descent not monotone: %d %d %d", d256, d64k, d4g)
	}
	if d4g > 45 {
		t.Errorf("sifter descent for 2^32 too long: %d", d4g)
	}
	// Note: log*(2^32) = log log(2^32) = 5, so no crossover between the
	// Fig1 and sifter descents is observable at machine-representable n;
	// the log* advantage is purely asymptotic (tower-of-exponent sizes).
}

// TestHittingTimeTracksDeterministicDescent: Monte-Carlo hitting times
// agree with the deterministic descent within a constant factor.
func TestHittingTimeTracksDeterministicDescent(t *testing.T) {
	g := rng.New(5)
	const n = 4096
	det := IterationsToZero(Fig1Rate, n, 1000)
	sum := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		sum += HittingTime(Fig1Rate, n, &g, 10000)
	}
	mean := float64(sum) / trials
	if mean > 6*float64(det)+10 {
		t.Errorf("simulated hitting time %.1f far above deterministic %d", mean, det)
	}
}
