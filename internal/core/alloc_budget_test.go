package core_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestWarmScheduleAllocatesNothing gates the lent round: once a
// scheduler has seen a queue, scheduling it again allocates nothing, on
// the greedy path (the 64-job paper trace, over DPJobLimit) and on the
// DP path (its first 10 jobs). The decision map, the retain arena the
// allocations are carved from, the price table, the DP memo and every
// queue buffer are the scheduler's own and reused.
func TestWarmScheduleAllocatesNothing(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.NumJobs = 64
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]*sched.JobState, len(jobs))
	horizon := 0.0
	for i, j := range jobs {
		states[i] = &sched.JobState{Job: j, Remaining: j.TotalIters()}
		horizon += j.MaxDuration()
	}
	opts := core.DefaultOptions()
	for _, c := range []struct {
		path   string
		states []*sched.JobState
	}{
		{"greedy", states},
		{"dp", states[:opts.DPJobLimit]},
	} {
		ctx := &sched.Context{
			RoundLength: 360, Horizon: horizon,
			Free: cluster.NewState(experiments.SimCluster()), Jobs: c.states,
		}
		s := core.New(opts)
		if len(s.Schedule(ctx)) == 0 {
			t.Fatalf("%s: nothing placed", c.path)
		}
		if got := testing.AllocsPerRun(20, func() { s.Schedule(ctx) }); got != 0 {
			t.Errorf("%s: a warm Schedule allocates %v times, want 0", c.path, got)
		}
	}
}
