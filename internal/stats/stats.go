// Package stats provides deterministic random sampling helpers and the
// small statistical summaries (means, percentiles, CDFs) used by the
// trace generator and the experiment harness.
//
// All randomness flows through a seeded *rand.Rand so every simulation in
// this repository is reproducible from its seed.
package stats

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/bug"
)

// Rand wraps math/rand with the distributions the workload model needs.
type Rand struct {
	r *rand.Rand
}

// NewRand returns a deterministic generator for the given seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform sample in [0, 1).
func (r *Rand) Float64() float64 { return r.r.Float64() }

// Intn returns a uniform sample in [0, n). It panics if n <= 0, matching
// math/rand.
func (r *Rand) Intn(n int) int { return r.r.Intn(n) }

// Uniform returns a uniform sample in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.r.Float64()
}

// Exponential returns a sample from an exponential distribution with the
// given rate (mean 1/rate). It panics if rate <= 0.
func (r *Rand) Exponential(rate float64) float64 {
	if rate <= 0 {
		bug.Failf("stats: Exponential rate must be positive, got %v", rate)
	}
	return r.r.ExpFloat64() / rate
}

// Choice returns a uniformly random index in [0, n), weighted by the
// non-negative weights. It panics if weights is empty or sums to zero.
func (r *Rand) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			bug.Failf("stats: negative weight %v", w)
		}
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		bug.Failf("stats: Choice requires positive total weight")
	}
	x := r.r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the smallest element of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (p in [0, 100]) of xs using
// linear interpolation between closest ranks. It returns 0 for an empty
// slice and panics if p is outside [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if p < 0 || p > 100 {
		bug.Failf("stats: percentile %v outside [0, 100]", p)
	}
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Summary bundles the descriptive statistics reported in the paper's
// evaluation (Figs. 3, 5, 6, 8).
type Summary struct {
	Count  int
	Mean   float64
	Median float64
	Min    float64
	Max    float64
	P90    float64
	P99    float64
}

// Summarize computes a Summary of xs. An empty input yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		Count:  len(xs),
		Mean:   Mean(xs),
		Median: Median(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		P90:    Percentile(xs, 90),
		P99:    Percentile(xs, 99),
	}
}

// CDFPoint is one point of an empirical cumulative distribution:
// Fraction of samples are <= X.
type CDFPoint struct {
	X        float64
	Fraction float64
}

// CDF returns the empirical CDF of xs as a step function sampled at each
// distinct data point, in ascending X order. An empty input yields nil.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	out := make([]CDFPoint, 0, len(sorted))
	for i, x := range sorted {
		//lint:ignore floateq deduplicating bitwise-identical values of a sorted sample; no arithmetic precedes the comparison
		if len(out) > 0 && out[len(out)-1].X == x {
			out[len(out)-1].Fraction = float64(i+1) / n
			continue
		}
		out = append(out, CDFPoint{X: x, Fraction: float64(i+1) / n})
	}
	return out
}

// BootstrapCI returns a percentile-bootstrap confidence interval for
// the mean of xs at the given confidence level (e.g. 0.95), using the
// given number of resamples and a deterministic seed. Degenerate inputs
// (fewer than 2 samples) return the sample mean for both bounds.
func BootstrapCI(xs []float64, confidence float64, resamples int, seed int64) (lo, hi float64) {
	if confidence <= 0 || confidence >= 1 {
		bug.Failf("stats: confidence %v outside (0, 1)", confidence)
	}
	if resamples <= 0 {
		bug.Failf("stats: resamples must be positive, got %d", resamples)
	}
	if len(xs) < 2 {
		m := Mean(xs)
		return m, m
	}
	r := NewRand(seed)
	means := make([]float64, resamples)
	for b := 0; b < resamples; b++ {
		sum := 0.0
		for i := 0; i < len(xs); i++ {
			sum += xs[r.Intn(len(xs))]
		}
		means[b] = sum / float64(len(xs))
	}
	tail := (1 - confidence) / 2 * 100
	return Percentile(means, tail), Percentile(means, 100-tail)
}
