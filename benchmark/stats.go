// Package benchmark is hadarbench: the repository's end-to-end and
// per-layer benchmark. It drives the simulator, the scheduler service
// and the live web API only through exported functions of
// repro/internal/*, times each layer from the outside, and checks that
// what the program produced is correct. See README.md.
package benchmark

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 < p < 100) of an ascending
// slice by the nearest-rank rule: the smallest sample with at least p
// percent of the samples at or below it. Empty input gives 0.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

// tailPercentiles are the tail percentiles a report may name, highest
// last.
var tailPercentiles = []float64{90, 95, 99, 99.9}

// topPercentile returns the highest tail percentile that still has at
// least ten of n samples beyond it, or 50 when even p90 does not: a
// percentile resting on fewer than ten samples is an anecdote.
func topPercentile(n int) float64 {
	top := 50.0
	for _, p := range tailPercentiles {
		if float64(n)*(100-p) >= 1000-1e-6 { // ten samples, less float error in 100-p
			top = p
		}
	}
	return top
}

// median returns the middle value of v (mean of the two middle values
// for an even count). Empty input gives 0. The harness keeps its own
// statistics instead of calling repro/internal/stats, so that a change
// to the program can never change how the program is measured.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of v by the rule of
// Python's statistics.quantiles(v, n=4) (exclusive method), which is
// what the acceptance driver applies to a metric's values across runs.
// Fewer than two values give that value (or 0) for both.
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		if len(v) == 1 {
			return v[0], v[0]
		}
		return 0, 0
	}
	s := sorted(v)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of v as a share of its median.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(med)
}

// sum adds up v.
func sum(v []float64) float64 {
	total := 0.0
	for _, x := range v {
		total += x
	}
	return total
}

// chunkSums cuts v into at most k consecutive chunks of equal length
// (the last may be shorter) and returns each chunk's sum.
func chunkSums(v []float64, k int) []float64 {
	size := max((len(v)+k-1)/k, 1)
	sums := make([]float64, 0, k)
	for lo := 0; lo < len(v); lo += size {
		sums = append(sums, sum(v[lo:min(lo+size, len(v))]))
	}
	return sums
}

// fastestOf returns, element by element, the lowest positive value
// among equally long series (0 where no series has one). Series of
// different lengths do not line up; they give nil.
func fastestOf(series [][]float64) []float64 {
	if len(series) == 0 {
		return nil
	}
	best := append([]float64(nil), series[0]...)
	for _, s := range series[1:] {
		if len(s) != len(best) {
			return nil
		}
		for i, x := range s {
			if x > 0 && (best[i] == 0 || x < best[i]) {
				best[i] = x
			}
		}
	}
	return best
}

// positive returns the values of v above 0.
func positive(v []float64) []float64 {
	var out []float64
	for _, x := range v {
		if x > 0 {
			out = append(out, x)
		}
	}
	return out
}

// Sample is one reported number with what is needed to judge it: its
// unit, the median and quartiles of the values behind it, how many
// there were, and Spread, the noise of the number as a share of it.
type Sample struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median,omitempty"`
	Q1     float64 `json:"q1,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	N      int     `json:"n,omitempty"`
	Spread float64 `json:"spread,omitempty"`
}

// medianOf reports the median of the values; its spread is their
// interquartile distance as a share of the median.
func medianOf(unit string, values []float64) Sample {
	q1, q3 := quartiles(values)
	med := median(values)
	return Sample{Value: med, Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(values), Spread: spread(values)}
}

// bestOf reports the best of one value per repetition: the lowest when
// lower is better, the highest otherwise.
func bestOf(d MetricDef, perRep []float64) Sample {
	if len(perRep) == 0 {
		return Sample{Unit: d.Unit}
	}
	asc := sorted(perRep)
	if d.Better == "higher" {
		return composite(d, asc[len(asc)-1], perRep)
	}
	return composite(d, asc[0], perRep)
}

// composite reports value, an estimate put together from the best parts
// of several repetitions, beside the median and quartiles of the same
// quantity taken per whole repetition. Its spread is the distance from
// the value to the nearer quartile: small when a quarter of the
// repetitions come close to the estimate, large when none does.
func composite(d MetricDef, value float64, perRep []float64) Sample {
	s := medianOf(d.Unit, perRep)
	near := s.Q1
	if d.Better == "higher" {
		near = s.Q3
	}
	s.Value, s.Spread = value, 0
	if value != 0 {
		s.Spread = math.Abs(near-value) / math.Abs(value)
	}
	return s
}
