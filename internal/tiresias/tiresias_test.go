package tiresias

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/sched"
)

func mkJob(id, workers int, arrival float64) *job.Job {
	return &job.Job{
		ID: id, Model: "m", Workers: workers, Epochs: 100, ItersPerEpoch: 100,
		Arrival:    arrival,
		Throughput: job.Rates{gpu.V100: 10, gpu.P100: 5, gpu.K80: 2},
	}
}

func newState(j *job.Job) *sched.JobState {
	return &sched.JobState{Job: j, Remaining: j.TotalIters()}
}

func mkCtx(c *cluster.Cluster, states ...*sched.JobState) *sched.Context {
	return &sched.Context{Now: 0, RoundLength: 360, Horizon: 1e6, Free: cluster.NewState(c), Jobs: states}
}

func TestLeastAttainedServiceFirst(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2})
	veteran := newState(mkJob(0, 2, 0))
	veteran.Attained = 10 * 3600 // above the 2 GPU-hour threshold
	fresh := newState(mkJob(1, 2, 100))
	out := New().Schedule(mkCtx(c, veteran, fresh))
	if out[1].Workers() != 2 {
		t.Errorf("fresh job not prioritized: %v", out)
	}
	if out[0].Workers() != 0 && len(out) > 1 {
		t.Errorf("demoted job scheduled over fresh job: %v", out)
	}
}

func TestFIFOWithinQueue(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2})
	early := newState(mkJob(0, 2, 0))
	late := newState(mkJob(1, 2, 50))
	out := New().Schedule(mkCtx(c, late, early))
	if out[0].Workers() != 2 {
		t.Errorf("earlier arrival not scheduled first: %v", out)
	}
}

func TestSingleTypeOnly(t *testing.T) {
	// No single type has 3 free devices: Tiresias cannot mix, job waits.
	c := cluster.New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.K80: 2})
	st := newState(mkJob(0, 3, 0))
	out := New().Schedule(mkCtx(c, st))
	if a, ok := out[0]; ok && a.Workers() > 0 {
		t.Errorf("Tiresias mixed types: %v", a)
	}
}

func TestHeterogeneityUnawareTypePick(t *testing.T) {
	// Picks the type with the most free devices, not the fastest: with 1
	// V100 and 4 K80 free, a 1-worker job lands on K80.
	c := cluster.New(gpu.Fleet{gpu.V100: 1, gpu.K80: 4})
	st := newState(mkJob(0, 1, 0))
	out := New().Schedule(mkCtx(c, st))
	if got := allocTypes(out[0]); len(got) != 1 || got[0] != gpu.K80 {
		t.Errorf("unaware pick = %v, want K80 (most free)", got)
	}
}

func TestKeepsRunningPlacement(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.K80: 2})
	st := newState(mkJob(0, 2, 0))
	st.Alloc = cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 2}}
	out := New().Schedule(mkCtx(c, st))
	if !out[0].Equal(st.Alloc) {
		t.Errorf("running placement churned: %v", out[0])
	}
}

func TestPreemptionByHigherQueue(t *testing.T) {
	// A demoted running job holds the only V100s; a fresh job arrives
	// and must preempt it (fresh is considered first and takes the
	// devices).
	c := cluster.New(gpu.Fleet{gpu.V100: 2})
	veteran := newState(mkJob(0, 2, 0))
	veteran.Attained = 10 * 3600
	veteran.Alloc = cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 2}}
	fresh := newState(mkJob(1, 2, 100))
	out := New().Schedule(mkCtx(c, veteran, fresh))
	if out[1].Workers() != 2 {
		t.Errorf("fresh job did not preempt: %v", out)
	}
}

func TestCapacityRespected(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 3})
	states := []*sched.JobState{
		newState(mkJob(0, 2, 0)),
		newState(mkJob(1, 2, 1)),
		newState(mkJob(2, 1, 2)),
	}
	out := New().Schedule(mkCtx(c, states...))
	free := cluster.NewState(c)
	total := 0
	for _, a := range out {
		if err := free.Allocate(a); err != nil {
			t.Fatalf("capacity violated: %v", err)
		}
		total += a.Workers()
	}
	if total > 3 {
		t.Errorf("allocated %d workers on 3 GPUs", total)
	}
}

func TestEmptyQueue(t *testing.T) {
	out := New().Schedule(mkCtx(cluster.New(gpu.Fleet{gpu.V100: 1})))
	if len(out) != 0 {
		t.Errorf("non-empty decision: %v", out)
	}
}

// allocTypes lists the accelerator types an allocation uses, ascending.
func allocTypes(a cluster.Alloc) []gpu.Type {
	f := gpu.Fleet{}
	for _, p := range a {
		f[p.Type] += p.Count
	}
	return f.Types()
}
