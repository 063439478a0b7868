package core_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/trace"
)

// TestWarmScheduleAllocatesNothing gates the lent round: once a
// scheduler has seen a queue, scheduling it again allocates nothing, on
// the greedy path (a 64-job paper trace, over DPJobLimit), on the DP
// path (a DPJobLimit-job trace), on the 5000-node fixed-backlog round of
// BenchmarkScaleRound, and on BenchmarkStragglerRound's priced
// per-node scan (250 nodes, two slow, 8 jobs through the DP and 480
// through the greedy pass). The churn rows slide a window over a longer
// trace, so between calls one job leaves and one arrives (and every
// ninth call the window jumps back). The decision map, the retain arena
// the allocations are carved from, the price table, the DP memo and
// every queue buffer are the scheduler's own and reused.
func TestWarmScheduleAllocatesNothing(t *testing.T) {
	straggler := func(nodes int) *cluster.Cluster {
		c := experiments.ScaleCluster(nodes)
		c.SetSpeed(1, 0.6)
		c.SetSpeed(nodes/2, 0.8)
		return c
	}
	opts := core.DefaultOptions()
	for _, c := range []struct {
		path    string
		cluster *cluster.Cluster
		jobs    int
		churn   bool
	}{
		{"greedy", experiments.SimCluster(), 64, false},
		{"dp", experiments.SimCluster(), opts.DPJobLimit, false},
		{"scale/fixed/nodes=5000", experiments.ScaleCluster(5000), 480, false},
		{"straggler/nodes=250/jobs=8", straggler(250), 8, false},
		{"straggler/nodes=250/jobs=480", straggler(250), 480, false},
		{"churn/greedy", experiments.SimCluster(), 64, true},
		{"churn/dp", experiments.SimCluster(), opts.DPJobLimit, true},
	} {
		const window = 9
		n := c.jobs
		if c.churn {
			n += window
		}
		ctx, err := experiments.RoundContext(c.cluster, n, trace.DefaultConfig().Seed)
		if err != nil {
			t.Fatal(err)
		}
		s := core.New(opts)
		all, calls := ctx.Jobs, 0
		schedule := func() {
			if c.churn {
				ctx.Jobs = all[calls%window : calls%window+c.jobs]
				calls++
			}
			s.Schedule(ctx)
		}
		if c.churn {
			for calls < window {
				schedule() // the window visits every position once
			}
		}
		if len(s.Schedule(ctx)) == 0 {
			t.Fatalf("%s: nothing placed", c.path)
		}
		if got := testing.AllocsPerRun(20, schedule); got != 0 {
			t.Errorf("%s: a warm Schedule allocates %v times, want 0", c.path, got)
		}
	}
}
