// Package repro's benchmarks time the scheduling round in isolation:
// the DP and greedy rounds and the engine's whole round here, the
// node-count sweep and straggler rounds in bench_scale_test.go, the
// federation's routing decision in bench_fed_test.go. `make bench`
// records the rounds as BENCH_sim.json. The paper's tables and figures
// are not benchmarks: `go run ./cmd/experiments -all` regenerates them
// and grades the paper's claims in the scorecard (EXPERIMENTS.md).
package repro

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
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

// BenchmarkEngineRound times one warm sim.Engine.ProcessNextEvent on the
// paper's 480-job trace over the paper's cluster: Hadar's Schedule plus
// the engine's round body around it (decision collection, validation,
// digest, progress accounting), averaged over every round of the trace.
// When the trace drains, a fresh engine is loaded with it and runs its
// first round outside the timer.
func BenchmarkEngineRound(b *testing.B) {
	jobs, err := trace.Generate(trace.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	c := experiments.SimCluster()
	load := func() *sim.Engine {
		e, err := sim.NewEngine(c, core.New(core.DefaultOptions()), sim.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, j := range jobs {
			if err := e.SubmitJob(j); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.ProcessNextEvent(); err != nil {
			b.Fatal(err)
		}
		return e
	}
	e := load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.HasPendingEvents() {
			b.StopTimer()
			e = load()
			b.StartTimer()
		}
		if err := e.ProcessNextEvent(); err != nil {
			b.Fatal(err)
		}
	}
}
