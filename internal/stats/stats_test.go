package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		x := r.Uniform(3, 7)
		if x < 3 || x >= 7 {
			t.Fatalf("Uniform(3,7) = %v out of range", x)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRand(7)
	const rate = 0.5
	n := 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		x := r.Exponential(rate)
		if x < 0 {
			t.Fatalf("negative exponential sample %v", x)
		}
		sum += x
	}
	mean := sum / float64(n)
	if math.Abs(mean-1/rate) > 0.1 {
		t.Errorf("exponential mean = %v, want ~%v", mean, 1/rate)
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exponential(0) did not panic")
		}
	}()
	NewRand(1).Exponential(0)
}

func TestChoiceRespectsWeights(t *testing.T) {
	r := NewRand(3)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[r.Choice([]float64{1, 2, 1})]++
	}
	// Index 1 should be picked roughly twice as often as 0 or 2.
	if counts[1] < counts[0] || counts[1] < counts[2] {
		t.Errorf("weighted choice counts %v do not favor middle", counts)
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("weight ratio = %v, want ~2", ratio)
	}
}

func TestChoicePanicsOnZeroWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Choice with zero weights did not panic")
		}
	}()
	NewRand(1).Choice([]float64{0, 0})
}

func TestChoicePanicsOnNegativeWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Choice with negative weight did not panic")
		}
	}()
	NewRand(1).Choice([]float64{1, -1})
}

func TestMeanMinMax(t *testing.T) {
	xs := []float64{2, 4, 6}
	if Mean(xs) != 4 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Min(xs) != 2 || Max(xs) != 6 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("Min/Max of empty slice not infinite")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Errorf("Percentile(50) of {0,10} = %v, want 5", got)
	}
}

func TestPercentileSingleElement(t *testing.T) {
	if got := Percentile([]float64{7}, 90); got != 7 {
		t.Errorf("Percentile of singleton = %v, want 7", got)
	}
}

func TestPercentileEmptyAndRange(t *testing.T) {
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("Percentile(101) did not panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Count != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Errorf("unexpected summary %+v", s)
	}
	if (Summarize(nil) != Summary{}) {
		t.Error("Summarize(nil) not zero")
	}
}

func TestCDFMonotoneAndComplete(t *testing.T) {
	xs := []float64{5, 1, 3, 3, 2}
	cdf := CDF(xs)
	if len(cdf) != 4 { // distinct values 1,2,3,5
		t.Fatalf("CDF has %d points, want 4: %v", len(cdf), cdf)
	}
	prev := 0.0
	for _, p := range cdf {
		if p.Fraction < prev {
			t.Errorf("CDF not monotone at %v", p)
		}
		prev = p.Fraction
	}
	if cdf[len(cdf)-1].Fraction != 1 {
		t.Errorf("CDF does not reach 1: %v", cdf)
	}
	// The duplicate value 3 should account for 2 samples: F(3) = 4/5.
	for _, p := range cdf {
		if p.X == 3 && math.Abs(p.Fraction-0.8) > 1e-12 {
			t.Errorf("F(3) = %v, want 0.8", p.Fraction)
		}
	}
}

func TestCDFPropertyBounds(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		cdf := CDF(xs)
		for _, p := range cdf {
			if p.Fraction <= 0 || p.Fraction > 1 {
				return false
			}
		}
		return sort.SliceIsSorted(cdf, func(i, j int) bool { return cdf[i].X < cdf[j].X })
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileBetweenMinMaxProperty(t *testing.T) {
	prop := func(raw []float64, pRaw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := float64(pRaw % 101)
		v := Percentile(xs, p)
		return v >= Min(xs)-1e-9 && v <= Max(xs)+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestBootstrapCIBracketsMean(t *testing.T) {
	xs := []float64{8, 9, 10, 11, 12, 10, 9, 11}
	lo, hi := BootstrapCI(xs, 0.95, 2000, 1)
	m := Mean(xs)
	if !(lo <= m && m <= hi) {
		t.Errorf("CI [%v, %v] does not bracket mean %v", lo, hi, m)
	}
	if hi-lo <= 0 {
		t.Errorf("degenerate CI [%v, %v]", lo, hi)
	}
	if lo < Min(xs) || hi > Max(xs) {
		t.Errorf("CI [%v, %v] outside data range", lo, hi)
	}
}

func TestBootstrapCIDeterministic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	lo1, hi1 := BootstrapCI(xs, 0.9, 500, 7)
	lo2, hi2 := BootstrapCI(xs, 0.9, 500, 7)
	if lo1 != lo2 || hi1 != hi2 {
		t.Error("bootstrap not deterministic for fixed seed")
	}
}

func TestBootstrapCIWiderAtHigherConfidence(t *testing.T) {
	xs := []float64{3, 7, 2, 9, 4, 6, 5, 8, 1, 10}
	lo90, hi90 := BootstrapCI(xs, 0.90, 2000, 3)
	lo99, hi99 := BootstrapCI(xs, 0.99, 2000, 3)
	if (hi99 - lo99) < (hi90 - lo90) {
		t.Errorf("99%% CI [%v,%v] narrower than 90%% CI [%v,%v]", lo99, hi99, lo90, hi90)
	}
}

func TestBootstrapCIDegenerate(t *testing.T) {
	lo, hi := BootstrapCI([]float64{5}, 0.95, 100, 1)
	if lo != 5 || hi != 5 {
		t.Errorf("singleton CI = [%v, %v]", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid confidence accepted")
		}
	}()
	BootstrapCI([]float64{1, 2}, 1.5, 100, 1)
}
