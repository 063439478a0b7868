package benchmark

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := SpecMetric{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := SpecMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := func(v float64) Sample { return Sample{Value: v, Spread: 0.02} }
	noisy := func(v float64) Sample { return Sample{Value: v, Spread: 0.2} }
	for _, c := range []struct {
		name string
		m    SpecMetric
		a, b Sample
		want string
	}{
		{"inside the bound", lower, tight(1), tight(1.09), Same},
		{"slower than the bound", lower, tight(1), tight(1.11), Worse},
		{"faster than the bound", lower, tight(1), tight(0.89), Better},
		{"less throughput", higher, tight(100), tight(89), Worse},
		{"more throughput", higher, tight(100), tight(111), Better},
		{"a too noisy", lower, noisy(1), tight(2), Unresolved},
		{"b too noisy", lower, tight(1), noisy(1), Unresolved},
		{"nothing measured", lower, Sample{}, tight(1), Unresolved},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareCountsRegressionsAndExactMismatches(t *testing.T) {
	spec := &Spec{EndToEnd: []SpecMetric{{Name: "wall_s", Better: "lower", Bound: 0.10}}}
	set := func(wall float64, identity string, rounds float64) *ResultSet {
		return &ResultSet{Seed: 1, Results: []*Result{
			{Workload: "w", Identity: identity, Metrics: map[string]Sample{"wall_s": {Value: wall}}},
			{Workload: "w", Traced: true, Identity: identity, Metrics: map[string]Sample{"sim.rounds": {Value: rounds}}},
		}}
	}
	var out bytes.Buffer
	if bad := Compare(&out, spec, set(1, "d=1", 10), set(1.05, "d=1", 10)); bad != 0 {
		t.Errorf("agreeing sets: %d bad pairs\n%s", bad, out.String())
	}
	out.Reset()
	// Slower, another digest (both passes carry it), another round count.
	if bad := Compare(&out, spec, set(1, "d=1", 10), set(1.5, "d=2", 11)); bad != 4 {
		t.Errorf("disagreeing sets: %d bad pairs, want 4\n%s", bad, out.String())
	}
	for _, want := range []string{"worse", "identity differs", "sim.rounds differs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestPoolTakesTheMedianAndTheRunToRunSpread(t *testing.T) {
	set := func(wall float64, identity string) *ResultSet {
		return &ResultSet{Seed: 1, Results: []*Result{
			{Workload: "w", Identity: identity, Metrics: map[string]Sample{"wall_s": {Value: wall, Unit: "s"}}},
		}}
	}
	pooled, err := Pool([]*ResultSet{set(1.0, "d=1"), set(1.2, "d=1"), set(1.1, "d=1")})
	if err != nil {
		t.Fatal(err)
	}
	got := pooled.Results[0].Metrics["wall_s"]
	if got.Value != 1.1 || got.N != 3 || got.Unit != "s" || got.Spread < 0.18 || got.Spread > 0.19 {
		t.Errorf("pooled wall_s = %+v, want the median 1.1 of 3 with spread 0.2/1.1", got)
	}
	if pooled.Results[0].Identity != "d=1" {
		t.Errorf("identity %q", pooled.Results[0].Identity)
	}
	// Sets of one seed that disagree on what must repeat exactly keep
	// both identities, so the comparison against any other set fails.
	pooled, err = Pool([]*ResultSet{set(1, "d=1"), set(1, "d=2")})
	if err != nil || pooled.Results[0].Identity != "d=1 | d=2" {
		t.Errorf("identity %q, err %v", pooled.Results[0].Identity, err)
	}
	other := set(1, "d=1")
	other.Seed = 2
	if _, err := Pool([]*ResultSet{set(1, "d=1"), other}); err == nil {
		t.Error("pooled sets of different seeds")
	}
}
