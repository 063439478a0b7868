package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/sched"
)

// TestBackfillWorkConservation: with enough pending gangs to cover the
// cluster, no device stays free after Schedule.
func TestBackfillWorkConservation(t *testing.T) {
	c := heteroCluster() // 6 GPUs
	var states []*sched.JobState
	for i := 0; i < 8; i++ {
		states = append(states, newState(mkJob(i, 1, 1e6, 10, 5, 2)))
	}
	s := New(DefaultOptions())
	out := s.Schedule(mkCtx(c, states...))
	used := 0
	for _, a := range out {
		used += a.Workers()
	}
	if used != 6 {
		t.Errorf("allocated %d of 6 devices with 8 pending 1-worker jobs", used)
	}
}

// TestBackfillDisabledLeavesLowPayoffJobsWaiting: disabling backfill
// must never allocate more than the backfilled schedule, and the
// payoff filter alone may leave devices idle.
func TestBackfillDisabledSubset(t *testing.T) {
	c := heteroCluster()
	var states []*sched.JobState
	for i := 0; i < 8; i++ {
		states = append(states, newState(mkJob(i, 1, 1e6, 10, 5, 2)))
	}
	withOpts := DefaultOptions()
	withoutOpts := DefaultOptions()
	withoutOpts.Backfill = false
	withoutOpts.NameSuffix = "-nobackfill"
	with := New(withOpts).Schedule(mkCtx(c, states...))
	without := New(withoutOpts).Schedule(mkCtx(c, states...))
	usedWith, usedWithout := 0, 0
	for _, a := range with {
		usedWith += a.Workers()
	}
	for _, a := range without {
		usedWithout += a.Workers()
	}
	if usedWithout > usedWith {
		t.Errorf("no-backfill allocated more (%d) than backfill (%d)", usedWithout, usedWith)
	}
}

// TestBackfillRespectsGangOfLeftovers: leftover capacity smaller than a
// job's gang must not be force-fed to it.
func TestBackfillRespectsGang(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 3})
	states := []*sched.JobState{
		newState(mkJob(0, 2, 1e6, 10, 0, 0)),
		newState(mkJob(1, 2, 1e6, 10, 0, 0)), // only 1 GPU left: must wait
	}
	out := New(DefaultOptions()).Schedule(mkCtx(c, states...))
	validateDecision(t, c, states, out)
	total := 0
	for _, a := range out {
		total += a.Workers()
	}
	if total != 2 {
		t.Errorf("allocated %d workers on 3 GPUs with 2-worker gangs", total)
	}
}

// TestDPMatchesGreedyOnIndependentJobs: when jobs do not contend (plenty
// of capacity), DP and greedy must produce identical allocations.
func TestDPMatchesGreedyWithoutContention(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 16})
	states := []*sched.JobState{
		newState(mkJob(0, 2, 1e5, 10, 0, 0)),
		newState(mkJob(1, 2, 2e5, 10, 0, 0)),
		newState(mkJob(2, 2, 3e5, 10, 0, 0)),
	}
	dpOpts := DefaultOptions()
	greedyOpts := DefaultOptions()
	greedyOpts.DPJobLimit = 0
	outDP := New(dpOpts).Schedule(mkCtx(c, states...))
	outG := New(greedyOpts).Schedule(mkCtx(c, states...))
	for _, st := range states {
		a, b := outDP[st.Job.ID], outG[st.Job.ID]
		if a.Workers() != b.Workers() {
			t.Errorf("job %d: DP %v vs greedy %v", st.Job.ID, a, b)
		}
	}
}

// TestCompletedJobsGetNothing: jobs with zero remaining work must not
// receive allocations.
func TestCompletedJobsGetNothing(t *testing.T) {
	c := heteroCluster()
	done := newState(mkJob(0, 2, 1e5, 10, 5, 2))
	done.Remaining = 0
	pending := newState(mkJob(1, 2, 1e5, 10, 5, 2))
	out := New(DefaultOptions()).Schedule(mkCtx(c, done, pending))
	if a, ok := out[0]; ok && a.Workers() > 0 {
		t.Errorf("completed job received %v", a)
	}
	if out[1].Workers() != 2 {
		t.Error("pending job starved by completed job")
	}
}

// TestStragglerAvoidance: with a slow node, Hadar should prefer the
// fast node when both offer the same type.
func TestStragglerAvoidance(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.V100: 2})
	c.SetSpeed(0, 0.3)
	st := newState(mkJob(0, 2, 1e6, 10, 0, 0))
	out := New(DefaultOptions()).Schedule(mkCtx(c, st))
	a := out[0].Canonical()
	if len(a) != 1 || a[0].Node != 1 {
		t.Errorf("Hadar placed on the straggler: %v", a)
	}
}
