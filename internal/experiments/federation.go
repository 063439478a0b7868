package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/federation"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/parallel"
)

// FedSeries is one series of the federation comparison: the pooled
// cluster under one Hadar, or the type split behind one router.
type FedSeries struct {
	// Series is "pooled" or "split/<router>".
	Series string
	Report *metrics.Report
}

// FedCompareResult asks the paper's heterogeneity question of the
// federation: does one heterogeneity-aware scheduler over pooled GPU
// types beat splitting them? The same trace runs on the paper's
// simulated cluster pooled under one Hadar, and on the same devices
// split into one member per accelerator type, each its own Hadar,
// behind a front-door router that commits every job to one member.
type FedCompareResult struct {
	Jobs   int
	Series []FedSeries
}

// PooledGain is the best split router's avg JCT over the pooled avg
// JCT: how much a router loses by splitting the types apart.
func (r *FedCompareResult) PooledGain() float64 {
	best := math.Inf(1)
	for _, s := range r.Series[1:] {
		best = math.Min(best, s.Report.AvgJCT())
	}
	return best / r.Series[0].Report.AvgJCT()
}

// FederationCompare runs the comparison on the continuous trace: the
// pooled series first, then one split series per named router (empty
// routers means every registered policy). The pooled series is the run
// Fig3(setup, true) reports as "hadar", which the caller passes as
// pooled.
func FederationCompare(setup Setup, routers []string, pooled *metrics.Report) (*FedCompareResult, error) {
	if len(routers) == 0 {
		routers = federation.RouterNames()
	}
	// Continuous arrivals: a static trace (everything at t=0) would hand
	// every router the same empty-member view. With Poisson arrivals the
	// front door routes each job against the queue states it would see
	// live.
	jobs, err := setup.jobs(setup.Rate)
	if err != nil {
		return nil, err
	}
	reports, err := parallel.Map(0, routers, func(router string) (*metrics.Report, error) {
		return runSplit(setup, router, jobs)
	})
	if err != nil {
		return nil, err
	}
	res := &FedCompareResult{Jobs: len(jobs), Series: []FedSeries{{Series: "pooled", Report: pooled}}}
	for i, router := range routers {
		res.Series = append(res.Series, FedSeries{Series: "split/" + router, Report: reports[i]})
	}
	return res, nil
}

// runSplit drives the whole trace through the type-split federation —
// one member per accelerator type of SimCluster, holding that type's
// devices node for node — under one routing policy and returns the
// merged report.
func runSplit(setup Setup, routerName string, jobs []*job.Job) (*metrics.Report, error) {
	var configs []federation.MemberConfig
	for t := gpu.Type(0); t < gpu.NumTypes; t++ {
		var fleets []gpu.Fleet
		for _, n := range SimCluster().Nodes() {
			if k := n.Capacity[t]; k > 0 {
				var f gpu.Fleet
				f[t] = k
				fleets = append(fleets, f)
			}
		}
		if len(fleets) == 0 {
			continue
		}
		configs = append(configs, federation.MemberConfig{
			Name:      t.String(),
			Cluster:   cluster.New(fleets...),
			Scheduler: NewHadar(),
			Sim:       setup.simOptions(),
		})
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
					return nil, fmt.Errorf("experiments: split/%s: %w", routerName, err)
				}
				next++
				continue
			}
		}
		if err := fed.ProcessNextEvent(); err != nil {
			return nil, fmt.Errorf("experiments: split/%s: %w", routerName, err)
		}
	}
	rep, err := fed.Finish()
	if err != nil {
		return nil, fmt.Errorf("experiments: split/%s: %w", routerName, err)
	}
	return rep.Merged, nil
}

// String renders the comparison with the pooled baseline first.
func (r *FedCompareResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Pooled vs type-split federation: %d jobs, best split / pooled avg JCT %.3fx\n",
		r.Jobs, r.PooledGain())
	fmt.Fprintf(&sb, "%-18s %10s %10s %12s %8s %10s\n",
		"series", "avgJCT(h)", "medJCT(h)", "makespan(h)", "util(%)", "completed")
	for _, s := range r.Series {
		fmt.Fprintf(&sb, "%-18s %10.3f %10.3f %12.3f %8.1f %10d\n",
			s.Series, s.Report.AvgJCT()/3600, s.Report.MedianJCT()/3600,
			s.Report.Makespan/3600, 100*s.Report.Utilization(), len(s.Report.Jobs))
	}
	return sb.String()
}
