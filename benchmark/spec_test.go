package benchmark

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json, which the
// acceptance driver and -compare read, in step with the metric tables
// the runs are written from, and inside the limits the driver sets.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := ReadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []SpecMetric, want []MetricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the table %+v", kind, i, g, d)
			}
			if !metricName.MatchString(d.Name) || len(d.Name) > 64 || !unit.MatchString(d.Unit) {
				t.Errorf("%s: illegal name or unit", d.Name)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			if bounded != (d.Bound > 0) || d.Bound > 0.25 {
				t.Errorf("%s: bound %v", d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, EndToEnd, true)
	check("per_layer", spec.PerLayer, PerLayer, false)
	if EndToEnd[0].Name != "setup_s" || EndToEnd[0].Unit != "s" || EndToEnd[0].Better != "lower" {
		t.Errorf("setup_s must lead the end-to-end metrics, got %+v", EndToEnd[0])
	}
	if len(spec.Workloads) != len(Workloads()) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(spec.Workloads), len(Workloads()))
	}
	for i, w := range Workloads() {
		g := spec.Workloads[i]
		if g.Name != w.Name || g.Why == "" || len(g.Why) > 200 || strings.Contains(g.Why, "\n") {
			t.Errorf("workload %d: %q with a reason of %d characters, want %q and one line of at most 200", i, g.Name, len(g.Why), w.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}
