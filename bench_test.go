// Package repro's benchmark harness regenerates every table and figure
// of the Hadar paper's evaluation (see DESIGN.md's per-experiment index)
// plus the design-choice ablations. Figures run at a reduced trace scale
// so `go test -bench=.` finishes in minutes; `go run ./cmd/experiments
// -all` runs the full 480-job paper scale.
//
// Benchmarks report domain metrics through b.ReportMetric:
// avg-JCT hours, speedup factors, utilization percentages.
package repro

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/profiler"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// --- Allocation-state hot-path microbenchmarks (DESIGN.md
// "Allocation-state layer"). These isolate the per-round scheduling
// inner loop: the memoized DP dual subroutine and the greedy fallback.
// End-to-end simulation cost is hadarbench's sim-paper-480 workload.

// roundContext is experiments.RoundContext over the paper's default
// trace seed, failing b on a trace error.
func roundContext(b *testing.B, c *cluster.Cluster, numJobs int) *sched.Context {
	b.Helper()
	ctx, err := experiments.RoundContext(c, numJobs, trace.DefaultConfig().Seed)
	if err != nil {
		b.Fatal(err)
	}
	return ctx
}

// BenchmarkDPAllocate exercises Algorithm 2's exact memoized DP
// (dpAllocate) on a queue that fits under DPJobLimit.
func BenchmarkDPAllocate(b *testing.B) {
	ctx := roundContext(b, experiments.SimCluster(), 10)
	opts := core.DefaultOptions()
	opts.DPJobLimit = 10
	opts.Backfill = false
	s := core.New(opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(ctx)
	}
}

// BenchmarkGreedyAllocate exercises the large-queue greedy fallback
// (sweep) plus the work-conserving backfill sweep.
func BenchmarkGreedyAllocate(b *testing.B) {
	ctx := roundContext(b, experiments.SimCluster(), 64)
	opts := core.DefaultOptions()
	opts.DPJobLimit = 0
	s := core.New(opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(ctx)
	}
}

// benchSetup is the reduced scale used by the benchmark harness.
func benchSetup() experiments.Setup {
	s := experiments.DefaultSetup()
	s.NumJobs = 64
	return s
}

func reportJCTSpeedups(b *testing.B, cmp *experiments.Comparison, hadarName string) {
	b.Helper()
	h := cmp.Reports[hadarName]
	if h == nil {
		b.Fatalf("missing %s report", hadarName)
	}
	b.ReportMetric(h.AvgJCT()/3600, "hadar-avgJCT-h")
	for _, base := range []string{"gavel", "tiresias", "yarn-cs"} {
		if r, ok := cmp.Reports[base]; ok {
			b.ReportMetric(r.AvgJCT()/h.AvgJCT(), "x-avgJCT-vs-"+base)
		}
	}
}

// BenchmarkMotivationExample regenerates the Section II.A toy example:
// Hadar's task-level allocation vs Gavel on 2 V100 + 3 P100 + 1 K80.
func BenchmarkMotivationExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Motivation()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			h := res.Cmp.Reports["hadar"].AvgJCT()
			g := res.Cmp.Reports["gavel"].AvgJCT()
			b.ReportMetric(100*(g-h)/g, "pct-JCT-improvement")
		}
	}
}

// BenchmarkFig3StaticCDF regenerates Fig. 3a: completion CDFs for the
// four schedulers on the static trace.
func BenchmarkFig3StaticCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(benchSetup(), false)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportJCTSpeedups(b, res.Cmp, "hadar")
		}
	}
}

// BenchmarkFig3ContinuousCDF regenerates Fig. 3b: the continuous
// (Poisson-arrival) trace.
func BenchmarkFig3ContinuousCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(benchSetup(), true)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportJCTSpeedups(b, res.Cmp, "hadar")
		}
	}
}

// BenchmarkFig4Utilization regenerates Fig. 4: cluster-wide GPU
// utilization for the four schedulers.
func BenchmarkFig4Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(benchSetup())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, name := range res.Cmp.Order {
				b.ReportMetric(100*res.Cmp.Reports[name].Utilization(), "util-pct-"+name)
			}
		}
	}
}

// BenchmarkFig5FTF regenerates Fig. 5: finish-time fairness for Hadar,
// Gavel, and Tiresias.
func BenchmarkFig5FTF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(benchSetup())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			h := res.Cmp.Reports["hadar"].AvgFTF()
			b.ReportMetric(h, "hadar-avgFTF")
			b.ReportMetric(res.Cmp.Reports["gavel"].AvgFTF()/h, "x-FTF-vs-gavel")
			b.ReportMetric(res.Cmp.Reports["tiresias"].AvgFTF()/h, "x-FTF-vs-tiresias")
		}
	}
}

// BenchmarkFig6Makespan regenerates Fig. 6: makespan under the
// makespan-minimization objective.
func BenchmarkFig6Makespan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchSetup())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			h := res.Cmp.Reports["hadar-makespan"].Makespan
			b.ReportMetric(h/3600, "hadar-makespan-h")
			b.ReportMetric(res.Cmp.Reports["gavel"].Makespan/h, "x-makespan-vs-gavel")
			b.ReportMetric(res.Cmp.Reports["tiresias"].Makespan/h, "x-makespan-vs-tiresias")
		}
	}
}

// BenchmarkFig7Scalability regenerates Fig. 7: scheduling-decision
// latency of Hadar vs Gavel as the active job count doubles from 32 to
// 512 (2048 at full scale via cmd/experiments), plus Hadar's node-count
// sweep.
func BenchmarkFig7Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(1, 512)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			jobs := res.Sweep("jobs-sweep")
			last := jobs[len(jobs)-1]
			b.ReportMetric(float64(last.HadarLatency.Microseconds()), "hadar-us-at-512-jobs")
			b.ReportMetric(float64(last.GavelLatency.Microseconds()), "gavel-us-at-512-jobs")
		}
	}
}

// BenchmarkFig8RateSweep regenerates Fig. 8: min/avg/max JCT under
// varying input job rates for Hadar, Gavel, and Tiresias.
func BenchmarkFig8RateSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(benchSetup(), []float64{30, 60})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			// Report the JCT range (band tightness) at the higher rate.
			for _, p := range res.Points {
				if p.RatePerHour == 60 {
					b.ReportMetric((p.MaxJCT-p.MinJCT)/3600, "JCTrange-h-"+p.Scheduler)
				}
			}
		}
	}
}

// BenchmarkFig9RoundLength regenerates Fig. 9: the impact of the
// scheduling round length on Hadar's average JCT.
func BenchmarkFig9RoundLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(benchSetup(), []float64{6, 48}, []float64{40})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, p := range res.Points {
				if p.RoundMinutes == 6 {
					b.ReportMetric(p.AvgJCT/3600, "avgJCT-h-6min-round")
				}
				if p.RoundMinutes == 48 {
					b.ReportMetric(p.AvgJCT/3600, "avgJCT-h-48min-round")
				}
			}
		}
	}
}

// BenchmarkFig10PhysicalUtilization regenerates Fig. 10: GPU
// utilization on the 8-GPU prototype configuration.
func BenchmarkFig10PhysicalUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(7)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, name := range res.Cmp.Order {
				b.ReportMetric(100*res.Cmp.Reports[name].Utilization(), "util-pct-"+name)
			}
		}
	}
}

// BenchmarkTable3PhysicalCluster regenerates Table III: JCT and
// makespan on the prototype configuration, physical-cost and
// flat-cost modes.
func BenchmarkTable3PhysicalCluster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(7)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			hp := res.Physical.Reports["hadar"]
			hs := res.Simulated.Reports["hadar"]
			b.ReportMetric(hp.AvgJCT()/3600, "hadar-physical-JCT-h")
			b.ReportMetric(hs.AvgJCT()/3600, "hadar-simulated-JCT-h")
			// The paper highlights <10% JCT divergence between physical
			// and simulated modes.
			b.ReportMetric(100*(hp.AvgJCT()-hs.AvgJCT())/hs.AvgJCT(), "phys-vs-sim-divergence-pct")
		}
	}
}

// BenchmarkTable4PreemptionOverhead regenerates Table IV from the
// checkpoint cost model.
func BenchmarkTable4PreemptionOverhead(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Table4(360).String()
	}
	if len(out) == 0 {
		b.Fatal("empty table")
	}
}

// --- Ablations (DESIGN.md section 5) ---

func runHadarVariant(b *testing.B, opts core.Options, simOpts sim.Options, numJobs int) *metrics.Report {
	b.Helper()
	cfg := trace.DefaultConfig()
	cfg.NumJobs = numJobs
	return runHadarOn(b, opts, simOpts, experiments.SimCluster(), cfg)
}

func runHadarOn(b *testing.B, opts core.Options, simOpts sim.Options, c *cluster.Cluster, cfg trace.Config) *metrics.Report {
	b.Helper()
	jobs, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r, err := sim.Run(c, jobs, core.New(opts), simOpts)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkAblationRoundQuantizedJCT measures how much JCT precision the
// simulator's exact-completion-time design buys over round-quantized
// completion (DESIGN.md ablation 1).
func BenchmarkAblationRoundQuantizedJCT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exact := runHadarVariant(b, core.DefaultOptions(), sim.DefaultOptions(), 32)
		qOpts := sim.DefaultOptions()
		qOpts.QuantizeCompletions = true
		quant := runHadarVariant(b, core.DefaultOptions(), qOpts, 32)
		if i == b.N-1 {
			b.ReportMetric((quant.AvgJCT()-exact.AvgJCT())/60, "quantization-bias-min")
		}
	}
}

// BenchmarkAblationDPvsGreedy compares the exact DP dual subroutine with
// the greedy fallback on identical workloads (DESIGN.md ablation 2).
func BenchmarkAblationDPvsGreedy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dpOpts := core.DefaultOptions()
		dpOpts.DPJobLimit = 64
		dpOpts.NameSuffix = "-dp"
		greedyOpts := core.DefaultOptions()
		greedyOpts.DPJobLimit = 0
		greedyOpts.NameSuffix = "-greedy"
		dp := runHadarVariant(b, dpOpts, sim.DefaultOptions(), 16)
		greedy := runHadarVariant(b, greedyOpts, sim.DefaultOptions(), 16)
		if i == b.N-1 {
			b.ReportMetric(dp.AvgJCT()/3600, "dp-avgJCT-h")
			b.ReportMetric(greedy.AvgJCT()/3600, "greedy-avgJCT-h")
			b.ReportMetric(float64(dp.AvgDecisionTime().Microseconds()), "dp-decision-us")
			b.ReportMetric(float64(greedy.AvgDecisionTime().Microseconds()), "greedy-decision-us")
		}
	}
}

// BenchmarkAblationConsolidation sweeps the communication-cost surcharge
// that penalizes multi-server allocations (DESIGN.md ablation 3).
func BenchmarkAblationConsolidation(b *testing.B) {
	for _, comm := range []float64{0, 0.1, 0.5} {
		b.Run(commLabel(comm), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				opts.CommCost = comm
				r := runHadarVariant(b, opts, sim.DefaultOptions(), 32)
				if i == b.N-1 {
					b.ReportMetric(r.AvgJCT()/3600, "avgJCT-h")
					b.ReportMetric(100*r.ReallocationFraction(), "realloc-pct")
				}
			}
		})
	}
}

func commLabel(c float64) string {
	switch c {
	case 0:
		return "comm=0"
	case 0.1:
		return "comm=0.1"
	default:
		return "comm=0.5"
	}
}

// BenchmarkAblationPriceFunction compares the exponential dual price
// (Eq. 5) against a linear price (DESIGN.md ablation 4).
func BenchmarkAblationPriceFunction(b *testing.B) {
	for _, exp := range []bool{true, false} {
		name := "exponential"
		if !exp {
			name = "linear"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				opts.ExponentialPrice = exp
				r := runHadarVariant(b, opts, sim.DefaultOptions(), 32)
				if i == b.N-1 {
					b.ReportMetric(r.AvgJCT()/3600, "avgJCT-h")
				}
			}
		})
	}
}

// BenchmarkAblationTaskLevel quantifies the headline design choice: the
// gain of task-level (mixed-accelerator) gangs over job-level
// allocation (DESIGN.md ablation 5). Task-level placement matters when
// a gang exceeds every fast type's pool — the paper's motivating
// scenario ("a job requires 4 V100 GPUs, but the cluster has 3 V100 and
// 3 K80 available"). The ablation cluster has 6 V100 + 6 P100 + 8 K80,
// so 8-worker gangs only fit the slow K80 pool unless the scheduler can
// straddle V100+P100; the job-level variant must crawl on K80s.
func BenchmarkAblationTaskLevel(b *testing.B) {
	clus := func() *cluster.Cluster {
		return cluster.New(
			gpu.Fleet{gpu.V100: 3}, gpu.Fleet{gpu.V100: 3},
			gpu.Fleet{gpu.P100: 3}, gpu.Fleet{gpu.P100: 3},
			gpu.Fleet{gpu.K80: 4}, gpu.Fleet{gpu.K80: 4},
		)
	}
	cfg := trace.DefaultConfig()
	cfg.NumJobs = 24
	cfg.WorkerChoices = []int{2, 8}
	cfg.WorkerWeights = []float64{0.5, 0.5}
	for i := 0; i < b.N; i++ {
		taskOpts := core.DefaultOptions()
		jobOpts := core.DefaultOptions()
		jobOpts.TaskLevel = false
		jobOpts.NameSuffix = "-joblevel"
		task := runHadarOn(b, taskOpts, sim.DefaultOptions(), clus(), cfg)
		jobLevel := runHadarOn(b, jobOpts, sim.DefaultOptions(), clus(), cfg)
		if i == b.N-1 {
			b.ReportMetric(task.AvgJCT()/3600, "tasklevel-avgJCT-h")
			b.ReportMetric(jobLevel.AvgJCT()/3600, "joblevel-avgJCT-h")
			b.ReportMetric(jobLevel.AvgJCT()/task.AvgJCT(), "x-tasklevel-gain")
		}
	}
}

// BenchmarkAblationCheckpointContention measures the cost of shared
// checkpoint storage (each node's SSD serializes simultaneous
// save/restore traffic) on a churn-heavy workload.
func BenchmarkAblationCheckpointContention(b *testing.B) {
	cfg := trace.DefaultConfig()
	cfg.NumJobs = 32
	for i := 0; i < b.N; i++ {
		base := sim.DefaultOptions()
		base.UseModelCosts = true
		cont := base
		cont.CheckpointContention = true
		plain := runHadarOn(b, core.DefaultOptions(), base, experiments.SimCluster(), cfg)
		shared := runHadarOn(b, core.DefaultOptions(), cont, experiments.SimCluster(), cfg)
		if i == b.N-1 {
			b.ReportMetric(plain.AvgJCT()/3600, "avgJCT-h-dedicated-ssd")
			b.ReportMetric(shared.AvgJCT()/3600, "avgJCT-h-shared-ssd")
		}
	}
}

// BenchmarkProfilerOverhead compares oracle Hadar against the
// throughput-estimator-wrapped variant (Fig. 2's profiling path): the
// estimator must stay close to oracle JCT while learning X_j^r online.
func BenchmarkProfilerOverhead(b *testing.B) {
	cfg := trace.DefaultConfig()
	cfg.NumJobs = 32
	for i := 0; i < b.N; i++ {
		jobs, err := trace.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		oracle, err := sim.Run(experiments.SimCluster(), jobs,
			core.New(core.DefaultOptions()), sim.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		est, err := sim.Run(experiments.SimCluster(), jobs,
			profiler.New(core.New(core.DefaultOptions()), profiler.DefaultOptions()),
			sim.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(oracle.AvgJCT()/3600, "oracle-avgJCT-h")
			b.ReportMetric(est.AvgJCT()/3600, "estimator-avgJCT-h")
			b.ReportMetric(est.AvgJCT()/oracle.AvgJCT(), "x-estimator-overhead")
		}
	}
}
