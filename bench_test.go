// Package repro's benchmarks time the scheduling round in isolation:
// the DP and greedy rounds here, the node-count sweep and straggler
// rounds in bench_scale_test.go, the federation's routing decision in
// bench_fed_test.go. `make bench` records the rounds as BENCH_sim.json. The
// paper's tables and figures are not benchmarks: `go run
// ./cmd/experiments -all` regenerates them and grades the paper's claims
// in the scorecard (EXPERIMENTS.md).
package repro

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sched"
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
