package yarncs

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

func TestFIFOOrder(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2})
	early := newState(mkJob(0, 2, 0))
	late := newState(mkJob(1, 2, 10))
	out := New().Schedule(mkCtx(c, late, early))
	if out[0].Workers() != 2 {
		t.Errorf("FIFO violated: %v", out)
	}
}

func TestNonPreemptive(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2})
	running := newState(mkJob(0, 2, 100))
	running.Alloc = cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 2}}
	waiting := newState(mkJob(1, 2, 0)) // earlier arrival but must wait
	out := New().Schedule(mkCtx(c, running, waiting))
	if !out[0].Equal(running.Alloc) {
		t.Errorf("running job preempted: %v", out[0])
	}
	if out[1].Workers() != 0 && len(out) > 1 {
		t.Errorf("waiting job overbooked: %v", out)
	}
}

func TestMixesTypesFreely(t *testing.T) {
	// 3-worker gang with only 2 V100 + 2 K80: YARN-CS mixes and runs at
	// the K80 bottleneck (where Gavel/Tiresias would leave it waiting).
	c := cluster.New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.K80: 2})
	st := newState(mkJob(0, 3, 0))
	out := New().Schedule(mkCtx(c, st))
	if out[0].Workers() != 3 {
		t.Fatalf("gang not placed: %v", out)
	}
	if len(allocTypes(out[0])) < 2 {
		t.Errorf("expected mixed-type container grab, got %v", out[0])
	}
}

func TestHeadOfLineBlocking(t *testing.T) {
	// The 4-worker head job does not fit in the 2 free V100s; the
	// 1-worker job behind it must wait too (strict FIFO: gang jobs hold
	// their queue position).
	c := cluster.New(gpu.Fleet{gpu.V100: 4})
	running := newState(mkJob(9, 2, 0))
	running.Alloc = cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 2}}
	big := newState(mkJob(0, 4, 1))
	small := newState(mkJob(1, 1, 5))
	out := New().Schedule(mkCtx(c, running, big, small))
	if a, ok := out[1]; ok && a.Workers() > 0 {
		t.Errorf("small job jumped the blocked queue head: %v", out)
	}
}

func TestCapacityRespected(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2, gpu.K80: 1})
	states := []*sched.JobState{
		newState(mkJob(0, 2, 0)),
		newState(mkJob(1, 2, 1)),
		newState(mkJob(2, 1, 2)),
	}
	out := New().Schedule(mkCtx(c, states...))
	free := cluster.NewState(c)
	for id, a := range out {
		if err := sched.Validate(states[id].Job, a); err != nil {
			t.Fatal(err)
		}
		if a.Workers() > 0 {
			if err := free.Allocate(a); err != nil {
				t.Fatalf("capacity violated: %v", err)
			}
		}
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
