package repro

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sched"
)

// scaleRoundPoints is the node-count sweep of the scalability suite: 60
// nodes is roughly the paper's testbed scale, 5000 a large production
// cluster. Each point carries two workload series: "prop" grows the
// pending queue with the cluster (a loaded cluster stays loaded as it
// grows), "fixed" holds the paper's 480-job backlog constant so the
// node-count term of the round cost is isolated.
var scaleRoundPoints = []struct {
	nodes int
	// large marks points skipped under -short / bench-smoke: a 1k- or
	// 5k-node round is seconds of setup, not smoke-test material.
	large bool
}{
	{nodes: 60},
	{nodes: 250},
	{nodes: 1000, large: true},
	{nodes: 5000, large: true},
}

// scaleJobsPerNode is the proportional series' load factor: 2 pending
// jobs per node keeps every cluster size oversubscribed (4 GPUs per
// node, multi-worker gangs) without making the 5000-node setup
// intractable.
const scaleJobsPerNode = 2

// scaleFixedJobs is the fixed-backlog series' queue length — the
// paper's full trace size.
const scaleFixedJobs = 480

// benchScaleContext builds a single-round context with `jobs` pending
// jobs over a `nodes`-node cluster of the paper's type mix.
func benchScaleContext(b *testing.B, nodes, jobs int) *sched.Context {
	b.Helper()
	ctx := benchSchedContext(b, jobs)
	ctx.Free = cluster.NewState(experiments.ScaleCluster(nodes))
	return ctx
}

// BenchmarkScaleRound measures one full Hadar scheduling round (queue
// ordering, price table, DP or greedy allocation, backfill) as the
// cluster grows from testbed to production scale. ns/op is the round
// latency; the nodes/gpus/jobs metrics let cmd/benchjson -scale-csv
// assemble results/fig7_scalability.csv without re-parsing benchmark
// names.
func BenchmarkScaleRound(b *testing.B) {
	run := func(b *testing.B, nodes, jobs int) {
		benchRounds(b, benchScaleContext(b, nodes, jobs))
	}
	for _, p := range scaleRoundPoints {
		p := p
		b.Run(fmt.Sprintf("prop/nodes=%d", p.nodes), func(b *testing.B) {
			if p.large && testing.Short() {
				b.Skip("large-cluster point skipped under -short")
			}
			run(b, p.nodes, p.nodes*scaleJobsPerNode)
		})
	}
	for _, p := range scaleRoundPoints {
		p := p
		b.Run(fmt.Sprintf("fixed/nodes=%d", p.nodes), func(b *testing.B) {
			if p.large && testing.Short() {
				b.Skip("large-cluster point skipped under -short")
			}
			run(b, p.nodes, scaleFixedJobs)
		})
	}
}

// benchRounds times repeated Hadar rounds over ctx and reports the
// context's size alongside.
func benchRounds(b *testing.B, ctx *sched.Context) {
	s := core.New(core.DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(ctx)
	}
	b.ReportMetric(float64(ctx.Free.Cluster().NumNodes()), "nodes")
	b.ReportMetric(float64(ctx.Free.TotalCapacity()), "gpus")
	b.ReportMetric(float64(len(ctx.Jobs)), "jobs")
}

// BenchmarkStragglerRound is BenchmarkScaleRound with two slow nodes, so
// no type has uniform speed and every fillType call takes the priced
// per-node scan instead of the bucket-order fast path. That scan reads
// one price per free node per probe; its cost is the per-cell price
// lookup (see DESIGN.md §13, "what was removed and why"). 8 jobs go
// through the DP, 64 and 480 through the greedy pass.
func BenchmarkStragglerRound(b *testing.B) {
	for _, nodes := range []int{250, 1000} {
		for _, jobs := range []int{8, 64, 480} {
			b.Run(fmt.Sprintf("nodes=%d/jobs=%d", nodes, jobs), func(b *testing.B) {
				ctx := benchScaleContext(b, nodes, jobs)
				ctx.Free.Cluster().SetSpeed(1, 0.6)
				ctx.Free.Cluster().SetSpeed(nodes/2, 0.8)
				benchRounds(b, ctx)
			})
		}
	}
}
