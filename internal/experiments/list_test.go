package experiments

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestListCSVNamesAreResults: the files List's entries write, with the
// scorecard's, are exactly the committed results/*.csv, so a renamed
// or orphaned CSV fails here rather than in make experiments.
func TestListCSVNamesAreResults(t *testing.T) {
	var listed []string
	for _, f := range List {
		listed = append(listed, f.CSV...)
	}
	listed = append(listed, (&Scorecard{}).CSV()[0].Name)
	slices.Sort(listed)
	if dup := slices.Compact(slices.Clone(listed)); len(dup) != len(listed) {
		t.Errorf("List writes a CSV name twice: %v", listed)
	}
	committed, err := filepath.Glob("../../results/*.csv")
	if err != nil {
		t.Fatal(err)
	}
	for i, path := range committed {
		committed[i] = filepath.Base(path)
	}
	if !slices.Equal(listed, committed) {
		t.Errorf("List writes %v,\nresults/ holds %v", listed, committed)
	}
}

// TestListViewsShareRuns runs every entry of List on one Eval and
// checks that the views hold the very reports of the runs they view:
// Fig. 5 and Fig. 6's baselines and the failure baseline are the static
// comparison's, Fig. 10 is Table III's physical mode and the pooled
// federation series is Fig. 3b's Hadar. Each result's CSV files are
// the ones its entry names.
func TestListViewsShareRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	e := NewEval(smallSetup(), 32)
	for _, f := range List {
		v, err := e.Result(f.Name)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if again, _ := e.Result(f.Name); again != v {
			t.Errorf("%s computed twice", f.Name)
		}
		var names []string
		if r, ok := v.(interface{ CSV() []CSVFile }); ok {
			for _, file := range r.CSV() {
				names = append(names, file.Name)
			}
		}
		if !slices.Equal(names, f.CSV) {
			t.Errorf("%s writes %v, its entry names %v", f.Name, names, f.CSV)
		}
	}
	must := func(name string) any {
		v, err := e.Result(name)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	static := must("3a").(*Fig3Result).Cmp
	same := func(what string, view, base *Comparison, names ...string) {
		t.Helper()
		for _, name := range names {
			if view.Reports[name] == nil || view.Reports[name] != base.Reports[name] {
				t.Errorf("%s %s is not the base run's report", what, name)
			}
		}
	}
	same("Fig. 5", must("5").(*Fig5Result).Cmp, static, "hadar", "gavel", "tiresias")
	same("Fig. 6", must("6").(*Fig6Result).Cmp, static, "gavel", "tiresias")
	same("failure baseline", must("failures").(*FailureScenarioResult).Baseline, static, static.Order...)
	if fig10, t3 := must("10").(*Fig10Result), must("table3").(*Table3Result); fig10.Cmp != t3.Physical {
		t.Error("Fig. 10 is not Table III's physical comparison")
	}
	pooled := must("federation").(*FedCompareResult).Series[0].Report
	if pooled != must("3b").(*Fig3Result).Cmp.Reports["hadar"] {
		t.Error("the pooled federation series is not Fig. 3b's Hadar report")
	}
	if _, err := e.Result("11"); err == nil {
		t.Error("Result accepted an unknown name")
	}
}
