package experiments

import (
	"fmt"
	"strings"

	"repro/internal/sched"
	"repro/internal/sim"
)

// FailureScenarioResult compares the four schedulers on the same trace
// with and without injected machine outages: how much each policy's JCT
// degrades when nodes disappear mid-run, and how much work the outages
// destroy (progress since the last checkpoint of every killed gang).
type FailureScenarioResult struct {
	Cmp      *Comparison // runs with outages
	Baseline *Comparison // clean runs of the same trace: the static comparison
	Failures []sim.Failure
}

// FailureScenario runs the static trace through every scheduler with
// two rolling node outages (a V100 node and a K80 node, eight hours
// each) and sets the runs beside clean, the static comparison.
func FailureScenario(setup Setup, clean *Comparison) (*FailureScenarioResult, error) {
	jobs, err := setup.jobs(0)
	if err != nil {
		return nil, err
	}
	// SimCluster nodes: 0-4 are V100, 10-14 are K80. Stagger the two
	// outages so the cluster is degraded (but never empty of a type)
	// through the high-load start of the trace. Both begin mid-round
	// (+100 s past the boundary): the scheduler cannot see them coming,
	// so gangs on the failing node lose the round's work — the surprise
	// path, not just the capacity-exclusion path.
	failures := []sim.Failure{
		{Node: 0, Start: 1*3600 + 100, End: 9 * 3600},
		{Node: 10, Start: 4*3600 + 100, End: 12 * 3600},
	}
	opts := setup.simOptions()
	opts.Failures = failures
	scheds := []sched.Scheduler{NewHadar(), NewGavel(), NewTiresias(), NewYARNCS()}
	faulty, err := RunComparison(SimCluster(), jobs, scheds, opts)
	if err != nil {
		return nil, err
	}
	return &FailureScenarioResult{Cmp: faulty, Baseline: clean, Failures: failures}, nil
}

// String renders per-scheduler degradation under the outages.
func (f *FailureScenarioResult) String() string {
	var sb strings.Builder
	sb.WriteString("Failure scenario: rolling node outages\n")
	for _, w := range f.Failures {
		fmt.Fprintf(&sb, "  node %d down [%.0fh, %.0fh)\n", w.Node, w.Start/3600, w.End/3600)
	}
	fmt.Fprintf(&sb, "%-12s %12s %12s %9s %11s %11s\n",
		"scheduler", "avgJCT(h)", "clean(h)", "slowdown", "recoveries", "lostIters")
	for _, name := range f.Cmp.Order {
		r := f.Cmp.Reports[name]
		b := f.Baseline.Reports[name]
		slow := 0.0
		if b.AvgJCT() > 0 {
			slow = r.AvgJCT() / b.AvgJCT()
		}
		fmt.Fprintf(&sb, "%-12s %12.3f %12.3f %8.2fx %11d %11.0f\n",
			name, r.AvgJCT()/3600, b.AvgJCT()/3600, slow,
			r.Faults.Recoveries, r.Faults.LostIterations)
	}
	return sb.String()
}
