package benchmark

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Spec is the part of BENCHMARK.json the comparison reads: the
// end-to-end metrics with their directions and regression bounds.
type Spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one metric entry of BENCHMARK.json.
type SpecMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// ReadSpec loads BENCHMARK.json.
func ReadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// Verdicts of one (workload, end-to-end metric) pair.
const (
	Same       = "same"
	Worse      = "worse"
	Better     = "better"
	Unresolved = "unresolved"
)

// verdict judges b against a under the metric's bound. A spread on
// either side wider than the bound leaves the pair unresolved: the runs
// cannot tell a change of that size from noise.
func verdict(m SpecMetric, a, b Sample) string {
	if a.Value == 0 || a.Spread > m.Bound || b.Spread > m.Bound {
		return Unresolved
	}
	worseBy := (b.Value - a.Value) / math.Abs(a.Value)
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case worseBy > m.Bound:
		return Worse
	case worseBy < -m.Bound:
		return Better
	}
	return Same
}

// Pool folds several result sets of one commit and seed into one: each
// metric becomes the median of its values across the sets, and its
// spread their interquartile distance as a share of that median — the
// run-to-run spread, which the repetitions inside one run can only
// approximate. One set is returned as it is.
func Pool(sets []*ResultSet) (*ResultSet, error) {
	pooled := *sets[0]
	if len(sets) == 1 {
		return &pooled, nil
	}
	pooled.Results = nil
	for i, first := range sets[0].Results {
		res := *first
		res.Metrics = map[string]Sample{}
		for name, s := range first.Metrics {
			values := make([]float64, len(sets))
			for k, set := range sets {
				if set.Seed != pooled.Seed || len(set.Results) != len(sets[0].Results) ||
					set.Results[i].Workload != first.Workload || set.Results[i].Traced != first.Traced {
					return nil, fmt.Errorf("result sets to pool differ in seed or in the runs they hold")
				}
				values[k] = set.Results[i].Metrics[name].Value
				if set.Results[i].Identity != first.Identity {
					res.Identity = first.Identity + " | " + set.Results[i].Identity
				}
			}
			res.Metrics[name] = medianOf(s.Unit, values)
		}
		pooled.Results = append(pooled.Results, &res)
	}
	return &pooled, nil
}

// Compare prints one verdict row per (workload, end-to-end metric) of
// two result sets and checks that what must repeat exactly does: run
// identities (when the seeds agree) and the exact-repeat counts. It
// returns how many pairs were worse or unresolved and how many exact
// values differed.
func Compare(w io.Writer, spec *Spec, a, b *ResultSet) (bad int) {
	find := func(set *ResultSet, workload string, traced bool) *Result {
		for _, r := range set.Results {
			if r.Workload == workload && r.Traced == traced {
				return r
			}
		}
		return nil
	}
	fmt.Fprintf(w, "%-14s %-12s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, ra := range a.Results {
		rb := find(b, ra.Workload, ra.Traced)
		if rb == nil {
			fmt.Fprintf(w, "%-14s traced=%v missing from b\n", ra.Workload, ra.Traced)
			bad++
			continue
		}
		if a.Seed == b.Seed && ra.Identity != rb.Identity {
			fmt.Fprintf(w, "%-14s identity differs: %s vs %s\n", ra.Workload, ra.Identity, rb.Identity)
			bad++
		}
		if ra.Traced {
			for _, name := range exactCounts {
				if a.Seed == b.Seed && ra.Metrics[name].Value != rb.Metrics[name].Value {
					fmt.Fprintf(w, "%-14s %s differs: %v vs %v\n", ra.Workload, name, ra.Metrics[name].Value, rb.Metrics[name].Value)
					bad++
				}
			}
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			v := verdict(m, sa, sb)
			if v == Worse || v == Unresolved {
				bad++
			}
			fmt.Fprintf(w, "%-14s %-12s %14.4f %14.4f %+7.1f%% %6.0f%%  %s\n",
				ra.Workload, m.Name, sa.Value, sb.Value, 100*(sb.Value-sa.Value)/sa.Value, 100*m.Bound, v)
		}
	}
	return bad
}
