package benchmark

import (
	"math"
	"reflect"
	"testing"
)

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{99, 50},      // p90 would leave 9.9
		{100, 90},     // exactly ten beyond p90
		{199, 90},     // p95 would leave 9.95
		{200, 95},     // exactly ten beyond p95
		{999, 95},     // p99 would leave 9.99
		{1000, 99},    // exactly ten beyond p99
		{9999, 99},    // p99.9 would leave 9.999
		{10000, 99.9}, // exactly ten beyond p99.9
	} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {10, 1}, {1, 1}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The acceptance driver takes quartiles with Python's
// statistics.quantiles(v, n=4); the values below are what it returns.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4, 9}, 2, 9},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestBestOfFollowsTheMetricsDirection(t *testing.T) {
	v := []float64{3, 1, 2}
	if got := bestOf(MetricDef{Unit: "s", Better: "lower"}, v); got.Value != 1 || got.Median != 2 || got.N != 3 {
		t.Errorf("lower is better: %+v", got)
	}
	if got := bestOf(MetricDef{Unit: "1/s", Better: "higher"}, v); got.Value != 3 {
		t.Errorf("higher is better: %+v", got)
	}
}

func TestChunkSums(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7}
	for _, c := range []struct {
		k    int
		want []float64
	}{
		{3, []float64{6, 15, 7}},             // chunks of 3, the last shorter
		{7, []float64{1, 2, 3, 4, 5, 6, 7}},  // one each
		{32, []float64{1, 2, 3, 4, 5, 6, 7}}, // never more chunks than values
		{1, []float64{28}},                   // everything
	} {
		if got := chunkSums(v, c.k); !reflect.DeepEqual(got, c.want) {
			t.Errorf("chunkSums(k=%d) = %v, want %v", c.k, got, c.want)
		}
	}
	if got := chunkSums(nil, 4); len(got) != 0 {
		t.Errorf("chunkSums of nothing = %v", got)
	}
}

func TestFastestOfTakesTheLowestPositiveValuePerElement(t *testing.T) {
	got := fastestOf([][]float64{{3, 0, 5}, {2, 0, 9}, {4, 7, 0}})
	if want := []float64{2, 7, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("fastestOf = %v, want %v", got, want)
	}
	if got := fastestOf([][]float64{{1, 2}, {1}}); got != nil {
		t.Errorf("series of different lengths gave %v, want nil", got)
	}
}

// The timings are put together from the fastest instance of each
// segment: a burst that slows one repetition's first half and another's
// second half must leave no trace, and the op latencies must come from
// the repetition that won the segment, not be picked op by op.
func TestEndToEndAssemblesTheFastestSegments(t *testing.T) {
	// segmentsPerPhase exceeds the four ops, so every op is a segment of
	// its own here; give each repetition as many op segments as ops.
	reps := []timedRep{
		{wallSegS: []float64{0.5, 1, 1, 3, 3}, opsSegS: []float64{1, 1, 3, 3}, ops: 4, opUS: []float64{10, 10, 30, 31}, allocMB: 10},
		{wallSegS: []float64{0.5, 3, 3, 1, 1}, opsSegS: []float64{3, 3, 1, 1}, ops: 4, opUS: []float64{30, 5, 10, 10}, allocMB: 11},
	}
	res := &Result{Metrics: map[string]Sample{}}
	endToEnd(res, []float64{1, 1, 1, 1, 1}, reps, 20)
	if got := res.Metrics["wall_s"]; got.Value != 4.5 || got.Median != 8.5 {
		t.Errorf("wall_s = %+v, want 0.5+1+1+1+1 beside a per-repetition median of 8.5", got)
	}
	if got := res.Metrics["ops_per_s"].Value; got != 1 {
		t.Errorf("ops_per_s = %v, want 4 ops in 4 s", got)
	}
	// Ops 10,10 from the first repetition, 10,10 from the second; the 5
	// the second saw in a segment it lost is not picked.
	if got := res.Metrics["op_p50_us"].Value; got != 10 {
		t.Errorf("op_p50_us = %v, want 10", got)
	}
	if got := res.Metrics["alloc_mb"].Value; got != 10 {
		t.Errorf("alloc_mb = %v, want the lower 10", got)
	}
	if got := res.Metrics["peak_rss_mb"].Value; got != 20 {
		t.Errorf("peak_rss_mb = %v", got)
	}
}
