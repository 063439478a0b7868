package repro

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/sim"
)

// BenchmarkScaleRound measures one full Hadar scheduling round (queue
// ordering, price table, DP or greedy allocation, backfill) at each
// point of Fig. 7's node-count sweep (experiments.NodeSweep), named
// prop/nodes=N and fixed/nodes=N. ns/op is the round latency.
func BenchmarkScaleRound(b *testing.B) {
	for _, p := range experiments.NodeSweep() {
		name := fmt.Sprintf("%s/nodes=%d", strings.TrimPrefix(p.Series, "nodes-"), p.Nodes)
		b.Run(name, func(b *testing.B) {
			benchRounds(b, roundContext(b, experiments.ScaleCluster(p.Nodes), p.Jobs))
		})
	}
}

// benchRounds times repeated Hadar rounds over ctx.
func benchRounds(b *testing.B, ctx *sched.Context) {
	s := core.New(core.DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(ctx)
	}
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
				c := experiments.ScaleCluster(nodes)
				c.SetSpeed(1, 0.6)
				c.SetSpeed(nodes/2, 0.8)
				benchRounds(b, roundContext(b, c, jobs))
			})
		}
	}
}

// BenchmarkClusterSetup times what a simulation builds before its first
// event at each node count: the ScaleCluster, and a Hadar engine over
// it, whose free state is the per-node flat table. ns/op is the set-up
// latency; allocs/op must not grow with the node count (see
// cluster.TestClusterBuildAllocs).
func BenchmarkClusterSetup(b *testing.B) {
	for _, nodes := range []int{60, 1000, 5000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := experiments.ScaleCluster(nodes)
				if _, err := sim.NewEngine(c, core.New(core.DefaultOptions()), sim.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
