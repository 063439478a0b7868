// Package experiments reproduces the Hadar paper's evaluation: it
// builds the simulated and prototype cluster configurations, constructs
// the four schedulers under comparison, and provides one harness
// function per table and figure in Section IV. Each harness returns a
// typed result plus a formatted table mirroring the paper's rows/series.
//
// It also holds Policies, the one name-to-policy table every binary and
// every cross-policy test ranges over, beside the -cluster and -fail
// flag parsers the binaries share.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gavel"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tiresias"
	"repro/internal/trace"
	"repro/internal/yarncs"
)

// SimCluster returns the paper's simulated cluster: 15 nodes with 20
// GPUs of each type (V100, P100, K80), i.e. 5 nodes x 4 GPUs per type.
func SimCluster() *cluster.Cluster {
	return cluster.Merge(
		cluster.Homogeneous(5, gpu.V100, 4),
		cluster.Homogeneous(5, gpu.P100, 4),
		cluster.Homogeneous(5, gpu.K80, 4),
	)
}

// ScaledSimCluster returns a cluster with the paper's 1:1:1 type mix but
// `perType` GPUs of each type, for scalability sweeps and fast tests.
func ScaledSimCluster(perType int) *cluster.Cluster {
	nodes := (perType + 3) / 4
	fleets := make([]gpu.Fleet, 0, 3*nodes)
	for _, t := range []gpu.Type{gpu.V100, gpu.P100, gpu.K80} {
		remaining := perType
		for i := 0; i < nodes; i++ {
			n := 4
			if n > remaining {
				n = remaining
			}
			if n > 0 {
				fleets = append(fleets, gpu.Fleet{t: n})
			}
			remaining -= n
		}
	}
	return cluster.New(fleets...)
}

// ScaleCluster returns a cluster with exactly `nodes` nodes of 4 GPUs
// each, cycling the paper's V100/P100/K80 type mix node by node. Unlike
// ScaledSimCluster (which scales GPUs per type), this fixes the node
// count, so node-count scalability sweeps hit round numbers.
func ScaleCluster(nodes int) *cluster.Cluster {
	mix := []gpu.Type{gpu.V100, gpu.P100, gpu.K80}
	fleets := make([]gpu.Fleet, nodes)
	for i := range fleets {
		fleets[i] = gpu.Fleet{mix[i%len(mix)]: 4}
	}
	return cluster.New(fleets...)
}

// RoundContext builds a single-round scheduling context over a fresh
// State of c: the numJobs jobs of the default trace generated with
// seed, all pending with their full work remaining, under a horizon
// that is the sum of their slowest runtimes. It is the one fixture of
// Fig. 7, the round microbenchmarks and the allocation gates.
func RoundContext(c *cluster.Cluster, numJobs int, seed int64) (*sched.Context, error) {
	cfg := trace.DefaultConfig()
	cfg.NumJobs = numJobs
	cfg.Seed = seed
	jobs, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	ctx := &sched.Context{
		RoundLength: checkpoint.RoundSeconds,
		Free:        cluster.NewState(c),
		Jobs:        make([]*sched.JobState, len(jobs)),
	}
	for i, j := range jobs {
		ctx.Jobs[i] = &sched.JobState{Job: j, Remaining: j.TotalIters()}
		ctx.Horizon += j.MaxDuration()
	}
	return ctx, nil
}

// PhysicalCluster returns the paper's AWS prototype: 8 instances with
// one GPU each — two T4 (g4dn), two K520 (g2dn), two K80 (p2), two V100
// (p3).
func PhysicalCluster() *cluster.Cluster {
	return cluster.New(
		gpu.Fleet{gpu.T4: 1}, gpu.Fleet{gpu.T4: 1},
		gpu.Fleet{gpu.K520: 1}, gpu.Fleet{gpu.K520: 1},
		gpu.Fleet{gpu.K80: 1}, gpu.Fleet{gpu.K80: 1},
		gpu.Fleet{gpu.V100: 1}, gpu.Fleet{gpu.V100: 1},
	)
}

// NewHadar returns Hadar configured for the JCT experiments.
func NewHadar() sched.Scheduler { return core.New(core.DefaultOptions()) }

// NewHadarMakespan returns Hadar with the utility swapped to the
// effective-throughput objective, the configuration the paper uses when
// it "flexibly specifies the scheduling policy towards makespan
// minimization" (Fig. 6).
func NewHadarMakespan() sched.Scheduler {
	opts := core.DefaultOptions()
	opts.Utility = core.EffectiveThroughput{}
	opts.NameSuffix = "-makespan"
	return core.New(opts)
}

// NewGavel returns the Gavel baseline in its paper configuration.
func NewGavel() sched.Scheduler { return gavel.New() }

// NewTiresias returns the Tiresias baseline (two queues, PromoteKnob
// disabled).
func NewTiresias() sched.Scheduler { return tiresias.New() }

// NewYARNCS returns the YARN capacity-scheduler baseline.
func NewYARNCS() sched.Scheduler { return yarncs.New() }

// Comparison holds the per-scheduler reports of one experiment.
type Comparison struct {
	Order   []string
	Reports map[string]*metrics.Report
}

// RunComparison simulates each scheduler on its own copy of the trace —
// in parallel, one goroutine per scheduler (the simulations share
// nothing but the immutable cluster and jobs) — and collects the
// reports in input order.
func RunComparison(c *cluster.Cluster, jobs []*job.Job, scheds []sched.Scheduler, opts sim.Options) (*Comparison, error) {
	reports, err := parallel.Map(0, scheds, func(s sched.Scheduler) (*metrics.Report, error) {
		r, err := sim.Run(c, jobs, s, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", s.Name(), err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	cmp := &Comparison{Reports: make(map[string]*metrics.Report, len(scheds))}
	for i, s := range scheds {
		cmp.Order = append(cmp.Order, s.Name())
		cmp.Reports[s.Name()] = reports[i]
	}
	return cmp, nil
}

// Speedup is every figure's and scorecard row's improvement factor: base
// over hadar on a lower-is-better metric (JCT, FTF, makespan).
func (c *Comparison) Speedup(base, hadar string, metric func(*metrics.Report) float64) float64 {
	return metric(c.Reports[base]) / metric(c.Reports[hadar])
}

// without returns order minus name, keeping order: a comparison's
// baselines are its Order without the Hadar series.
func without(order []string, name string) []string {
	out := make([]string, 0, len(order))
	for _, n := range order {
		if n != name {
			out = append(out, n)
		}
	}
	return out
}

// only returns a view of c holding the named series, in that order:
// the same reports, in a map of their own.
func (c *Comparison) only(names ...string) *Comparison {
	v := &Comparison{Order: names, Reports: make(map[string]*metrics.Report, len(names))}
	for _, name := range names {
		v.Reports[name] = c.Reports[name]
	}
	return v
}

// Table renders the headline metrics of every scheduler.
func (c *Comparison) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %12s %12s %12s %9s %8s %8s %10s\n",
		"scheduler", "avgJCT(h)", "medJCT(h)", "makespan(h)", "util(%)", "occ(%)", "FTF", "queue(h)")
	for _, name := range c.Order {
		r := c.Reports[name]
		fmt.Fprintf(&sb, "%-18s %12.3f %12.3f %12.3f %9.1f %8.1f %8.2f %10.3f\n",
			name, r.AvgJCT()/3600, r.MedianJCT()/3600, r.Makespan/3600,
			100*r.Utilization(), 100*r.Occupancy(), r.AvgFTF(), r.AvgQueueDelay()/3600)
	}
	return sb.String()
}
