package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/federation"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// FedSeries is one series of the federation comparison: either the
// mega-cluster baseline or a federation under one routing policy.
type FedSeries struct {
	// Series is "mega-cluster" or "federation/<router>".
	Series  string
	Members int
	Report  *metrics.Report
}

// FedCompareResult quantifies the cost of partitioning: the same trace
// run through N member clusters merged under a single Hadar instance
// (the mega-cluster, a global-knowledge upper bound) versus an N-member
// federation where a front-door router commits each job to one member
// at submission time.
type FedCompareResult struct {
	Members int
	Jobs    int
	Series  []FedSeries
}

// FederationCompare runs the comparison. Every series sees the same
// trace; the mega-cluster merges `members` copies of the paper's
// simulated cluster, and each federation series runs `members`
// independent engines (each its own SimCluster + Hadar) under one of
// the named routing policies. Empty routers means all registered
// policies.
func FederationCompare(setup Setup, members int, routers []string) (*FedCompareResult, error) {
	if members < 1 {
		return nil, fmt.Errorf("experiments: federation needs >= 1 member, got %d", members)
	}
	if len(routers) == 0 {
		routers = federation.RouterNames()
	}
	// Continuous arrivals: a static trace (everything at t=0) would hand
	// every router the same empty-member view, collapsing all policies
	// into round-robin. With Poisson arrivals the front door routes each
	// job against the queue states it would see live.
	jobs, err := setup.continuousTrace()
	if err != nil {
		return nil, err
	}

	type fedRun struct {
		series string
		router string // empty = mega-cluster baseline
	}
	runs := []fedRun{{series: "mega-cluster"}}
	for _, name := range routers {
		runs = append(runs, fedRun{series: "federation/" + name, router: name})
	}
	reports, err := parallel.Map(0, runs, func(run fedRun) (*metrics.Report, error) {
		if run.router == "" {
			parts := make([]*cluster.Cluster, members)
			for i := range parts {
				parts[i] = SimCluster()
			}
			return sim.Run(cluster.Merge(parts...), jobs, NewHadar(), setup.simOptions())
		}
		return runFederation(setup, members, run.router, jobs)
	})
	if err != nil {
		return nil, err
	}
	res := &FedCompareResult{Members: members, Jobs: len(jobs)}
	for i, run := range runs {
		res.Series = append(res.Series, FedSeries{Series: run.series, Members: members, Report: reports[i]})
	}
	return res, nil
}

// runFederation drives the whole trace through an N-member federation
// under one routing policy and returns the merged report.
func runFederation(setup Setup, members int, routerName string, jobs []*job.Job) (*metrics.Report, error) {
	configs := make([]federation.MemberConfig, members)
	for i := range configs {
		configs[i] = federation.MemberConfig{
			Name:      fmt.Sprintf("region%d", i),
			Cluster:   SimCluster(),
			Scheduler: NewHadar(),
			Sim:       setup.simOptions(),
		}
	}
	router, err := federation.NewRouter(routerName)
	if err != nil {
		return nil, err
	}
	fed, err := federation.New(configs, router)
	if err != nil {
		return nil, err
	}
	// Interleave submissions with the shared-clock loop: each job is
	// routed only once the federation has advanced to its arrival, so
	// the router sees the member queue states a live front door would
	// (submitting the whole trace up-front would route everything
	// against empty members).
	ordered := append([]*job.Job(nil), jobs...)
	sort.Slice(ordered, func(a, b int) bool {
		if ordered[a].Arrival < ordered[b].Arrival {
			return true
		}
		if ordered[b].Arrival < ordered[a].Arrival {
			return false
		}
		return ordered[a].ID < ordered[b].ID
	})
	next := 0
	for next < len(ordered) || fed.HasPendingEvents() {
		if next < len(ordered) {
			t, pending := fed.PeekNextEventTime()
			if !pending || ordered[next].Arrival <= t {
				if err := fed.SubmitJob(ordered[next]); err != nil {
					return nil, fmt.Errorf("experiments: federation/%s: %w", routerName, err)
				}
				next++
				continue
			}
		}
		if err := fed.ProcessNextEvent(); err != nil {
			return nil, fmt.Errorf("experiments: federation/%s: %w", routerName, err)
		}
	}
	rep, err := fed.Finish()
	if err != nil {
		return nil, fmt.Errorf("experiments: federation/%s: %w", routerName, err)
	}
	return rep.Merged, nil
}

// String renders the comparison with the mega-cluster baseline first.
func (r *FedCompareResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Federation vs mega-cluster: %d members, %d jobs\n", r.Members, r.Jobs)
	fmt.Fprintf(&sb, "%-26s %10s %10s %12s %8s %10s\n",
		"series", "avgJCT(h)", "medJCT(h)", "makespan(h)", "util(%)", "completed")
	for _, s := range r.Series {
		fmt.Fprintf(&sb, "%-26s %10.3f %10.3f %12.3f %8.1f %10d\n",
			s.Series, s.Report.AvgJCT()/3600, s.Report.MedianJCT()/3600,
			s.Report.Makespan/3600, 100*s.Report.Utilization(), len(s.Report.Jobs))
	}
	return sb.String()
}
