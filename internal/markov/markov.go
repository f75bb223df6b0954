// Package markov provides the chain-analysis tools of Lemma 2.1: rate
// functions and the Δ_{f−1} hitting-time machinery that converts a group
// election's performance parameter f into the expected number of chain
// levels.
//
// The paper defines, for a non-increasing Markov chain on {0..n} with rate
// r (r(j) bounds E[M_{i+1} | M_i = j]), the quantity Δ_r(n) as the maximum
// expected hitting time of 0 from n. For the deterministic descent
// j → f(j) − 1 this is simply the number of iterations to reach 0, which
// is what IterationsToZero computes; the paper's analysis shows the
// expected hitting time is within a constant factor of it for the f's in
// play (f(k) = 2 log k + 6 gives Θ(log* k); f(k) = O(√k) gives
// Θ(log log k)).
package markov

import (
	"math"

	"repro/internal/rng"
)

// IterationsToZero returns the number of iterations of the integer
// descent j → min(⌊f(j)⌋ − 1, j − 1) needed to reach 0 from n, capped at
// limit to guard against non-contracting f. This is the deterministic
// analogue of Δ_{f−1}(n) — the paper's chains live on the integer states
// {0..n}, and the min with j−1 is the splitter's guaranteed one-process
// progress per level: the expected number of chain levels used by the
// Section 2.1 construction when the group elections have performance
// parameter f.
func IterationsToZero(f func(float64) float64, n float64, limit int) int {
	j := math.Floor(n)
	for i := 0; i < limit; i++ {
		if j <= 0 {
			return i
		}
		next := math.Floor(f(j)) - 1
		if next < 0 {
			next = 0
		}
		if next >= j {
			next = j - 1
		}
		j = next
	}
	return limit
}

// Fig1Rate is the Lemma 2.2 performance parameter f(k) = 2·log₂ k + 6.
func Fig1Rate(k float64) float64 {
	if k <= 1 {
		return 1
	}
	return 2*math.Log2(k) + 6
}

// SifterRate is the balanced sifter performance parameter f(k) ≈ 2√k + 1.
func SifterRate(k float64) float64 {
	if k <= 1 {
		return 1
	}
	return 2*math.Sqrt(k) + 1
}

// HittingTime simulates a non-increasing chain on {0..n} whose step from
// state j is distributed as min(j, Poisson-like sample with mean rate(j)),
// and returns the number of steps to reach state ≤ 1. It is the
// Monte-Carlo counterpart of IterationsToZero used to sanity-check the
// Δ analysis against randomness rather than the deterministic descent.
// Coins come from the repo's splitmix64 stream, like every other
// randomized component, so a seed pins the whole trajectory.
func HittingTime(rate func(float64) float64, n int, g *rng.SplitMix64, limit int) int {
	j := float64(n)
	for i := 0; i < limit; i++ {
		if j <= 1 {
			return i
		}
		mean := rate(j) - 1
		if mean < 0 {
			mean = 0
		}
		// Binomial-style sample with the right mean, clamped to stay
		// non-increasing and strictly below j in expectation.
		next := 0.0
		if mean > 0 {
			p := mean / j
			if p > 1 {
				p = 1
			}
			for t := 0; t < int(j); t++ {
				if g.Float64() < p {
					next++
				}
			}
		}
		if next >= j {
			next = j - 1
		}
		j = next
	}
	return limit
}
