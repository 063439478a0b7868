package gavel

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/sched"
)

func mkJob(id, workers int, model string, v100, p100, k80 float64) *job.Job {
	return &job.Job{
		ID: id, Model: model, Workers: workers, Epochs: 100, ItersPerEpoch: 100,
		Throughput: job.Rates{gpu.V100: v100, gpu.P100: p100, gpu.K80: k80},
	}
}

func newState(j *job.Job) *sched.JobState {
	return &sched.JobState{Job: j, Remaining: j.TotalIters()}
}

func mkCtx(c *cluster.Cluster, states ...*sched.JobState) *sched.Context {
	return &sched.Context{Now: 0, RoundLength: 360, Horizon: 1e6, Free: cluster.NewState(c), Jobs: states}
}

func heteroCluster() *cluster.Cluster {
	return cluster.New(
		gpu.Fleet{gpu.V100: 2},
		gpu.Fleet{gpu.P100: 3},
		gpu.Fleet{gpu.K80: 1},
	)
}

func validate(t *testing.T, c *cluster.Cluster, states []*sched.JobState, out map[int]cluster.Alloc) {
	t.Helper()
	free := cluster.NewState(c)
	byID := map[int]*sched.JobState{}
	for _, st := range states {
		byID[st.Job.ID] = st
	}
	for id, a := range out {
		st := byID[id]
		if st == nil {
			t.Fatalf("allocation for unknown job %d", id)
		}
		if err := sched.Validate(st.Job, a); err != nil {
			t.Fatal(err)
		}
		if a.Workers() > 0 {
			if err := free.Allocate(a); err != nil {
				t.Fatalf("capacity violation: %v", err)
			}
		}
	}
}

func TestSingleTypePerJob(t *testing.T) {
	c := heteroCluster()
	states := []*sched.JobState{
		newState(mkJob(0, 2, "A", 10, 5, 1)),
		newState(mkJob(1, 3, "B", 8, 6, 2)),
	}
	out := New().Schedule(mkCtx(c, states...))
	validate(t, c, states, out)
	for id, a := range out {
		if len(allocTypes(a)) > 1 {
			t.Errorf("job %d received a mixed-type allocation %v; Gavel is job-level", id, a)
		}
	}
}

func TestGavelCannotMixForLargeGang(t *testing.T) {
	// 3-worker gang, but no single type has 3 free devices. Gavel must
	// leave the job waiting — the paper's motivating limitation.
	c := cluster.New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.K80: 2})
	st := newState(mkJob(0, 3, "A", 10, 0, 4))
	out := New().Schedule(mkCtx(c, st))
	if a, ok := out[0]; ok && a.Workers() > 0 {
		t.Errorf("Gavel scheduled an impossible single-type gang: %v", a)
	}
}

func TestSchedulesOnEmptyCluster(t *testing.T) {
	c := heteroCluster()
	st := newState(mkJob(0, 2, "A", 10, 5, 1))
	out := New().Schedule(mkCtx(c, st))
	if out[0].Workers() != 2 {
		t.Fatalf("single job not scheduled: %v", out)
	}
}

func TestPriorityFavorsUnderservedJob(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2})
	starved := newState(mkJob(0, 2, "A", 10, 5, 1))
	fed := newState(mkJob(1, 2, "A", 10, 5, 1))
	fed.RoundsByType[gpu.V100] = 50 // has received many V100 rounds
	out := New().Schedule(mkCtx(c, starved, fed))
	if out[0].Workers() != 2 {
		t.Errorf("underserved job not prioritized: %v", out)
	}
	if out[1].Workers() != 0 && len(out) > 1 {
		t.Errorf("overserved job scheduled ahead: %v", out)
	}
}

func TestTimeSharingAcrossRounds(t *testing.T) {
	// Two identical 2-worker jobs on 2 V100s: the LP gives each half the
	// V100 time; priority rounds must alternate them.
	c := cluster.New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.K80: 2})
	a := newState(mkJob(0, 2, "A", 10, 0, 1))
	b := newState(mkJob(1, 2, "A", 10, 0, 1))
	s := New()
	gotV100 := map[int]int{}
	for round := 0; round < 6; round++ {
		out := s.Schedule(mkCtx(c, a, b))
		validate(t, c, []*sched.JobState{a, b}, out)
		for id, alloc := range out {
			st := a
			if id == 1 {
				st = b
			}
			st.Alloc = alloc
			for _, typ := range allocTypes(alloc) {
				st.RoundsByType[typ]++
				if typ == gpu.V100 {
					gotV100[id]++
				}
			}
		}
	}
	if gotV100[0] == 0 || gotV100[1] == 0 {
		t.Errorf("V100 time not shared: %v", gotV100)
	}
	diff := gotV100[0] - gotV100[1]
	if diff < -2 || diff > 2 {
		t.Errorf("V100 rounds unbalanced: %v", gotV100)
	}
}

func TestLPCacheInvalidation(t *testing.T) {
	c := heteroCluster()
	s := New()
	st1 := newState(mkJob(0, 2, "A", 10, 5, 1))
	s.Schedule(mkCtx(c, st1))
	sig1 := s.cacheSig
	// Same class set: cache retained.
	s.Schedule(mkCtx(c, st1))
	if s.cacheSig != sig1 {
		t.Error("cache signature changed without workload change")
	}
	// New class arrives: cache recomputed.
	st2 := newState(mkJob(1, 1, "B", 3, 2, 1))
	s.Schedule(mkCtx(c, st1, st2))
	if s.cacheSig == sig1 {
		t.Error("cache not invalidated on workload change")
	}
}

func TestEmptyQueue(t *testing.T) {
	out := New().Schedule(mkCtx(heteroCluster()))
	if len(out) != 0 {
		t.Errorf("non-empty decision for empty queue: %v", out)
	}
}

func TestHeterogeneityAwareTypeChoice(t *testing.T) {
	// A job 10x faster on V100 and a job only 1.5x faster on V100 (both
	// 1 worker, 1 V100 + 1 K80): the heterogeneity-sensitive job should
	// get the V100 and the insensitive one the K80 — Gavel's core
	// feature.
	c := cluster.New(gpu.Fleet{gpu.V100: 1, gpu.K80: 1})
	sensitive := newState(mkJob(0, 1, "resnet", 10, 0, 1))
	flat := newState(mkJob(1, 1, "a3c", 3, 0, 2))
	out := New().Schedule(mkCtx(c, sensitive, flat))
	validate(t, c, []*sched.JobState{sensitive, flat}, out)
	if len(out) != 2 {
		t.Fatalf("both jobs should run: %v", out)
	}
	if allocTypes(out[0])[0] != gpu.V100 {
		t.Errorf("heterogeneity-sensitive job on %v, want V100", allocTypes(out[0]))
	}
	if allocTypes(out[1])[0] != gpu.K80 {
		t.Errorf("flat job on %v, want K80", allocTypes(out[1]))
	}
}

func TestManyJobsAggregateIntoSmallLP(t *testing.T) {
	// 200 jobs of 2 classes must schedule quickly and respect capacity.
	c := cluster.New(
		gpu.Fleet{gpu.V100: 8},
		gpu.Fleet{gpu.P100: 8},
		gpu.Fleet{gpu.K80: 8},
	)
	var states []*sched.JobState
	for i := 0; i < 200; i++ {
		model := "A"
		if i%2 == 1 {
			model = "B"
		}
		states = append(states, newState(mkJob(i, 1+i%2, model, 10, 5, 2)))
	}
	out := New().Schedule(mkCtx(c, states...))
	validate(t, c, states, out)
	if len(out) == 0 {
		t.Error("nothing scheduled")
	}
}

// TestAllocationMatrixMatchesBruteForce cross-validates the LP against a
// dense grid search of the max-min objective on a 2-class, 2-type
// instance.
func TestAllocationMatrixMatchesBruteForce(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.K80: 2})
	fast := newState(mkJob(0, 1, "fast", 10, 0, 1)) // 10x on V100
	flat := newState(mkJob(1, 1, "flat", 4, 0, 3))  // barely cares
	s := New()
	y := s.allocationMatrix(mkCtx(c, fast, flat))

	// Normalized throughput of a class under fractions (v, k):
	// (v*Xv + k*Xk) / bestX. Constraints: v+k <= 1 per class,
	// sum of v <= 2, sum of k <= 2 (1 worker per job, 2 devices).
	score := func(v0, k0, v1, k1 float64) float64 {
		n0 := (v0*10 + k0*1) / 10
		n1 := (v1*4 + k1*3) / 4
		if n0 < n1 {
			return n0
		}
		return n1
	}
	best := 0.0
	const steps = 20
	for a := 0; a <= steps; a++ {
		for b := 0; a+b <= steps; b++ {
			for d := 0; d <= steps; d++ {
				for e := 0; d+e <= steps; e++ {
					v0, k0 := float64(a)/steps, float64(b)/steps
					v1, k1 := float64(d)/steps, float64(e)/steps
					if v0+v1 > 2 || k0+k1 > 2 {
						continue
					}
					if sc := score(v0, k0, v1, k1); sc > best {
						best = sc
					}
				}
			}
		}
	}
	yFast := y[classKey(fast.Job)]
	yFlat := y[classKey(flat.Job)]
	lpScore := score(yFast[gpu.V100], yFast[gpu.K80], yFlat[gpu.V100], yFlat[gpu.K80])
	if lpScore < best-0.06 { // grid resolution slack
		t.Errorf("LP max-min %.3f below brute force %.3f (fast=%v flat=%v)",
			lpScore, best, yFast, yFlat)
	}
}

// TestAllocationMatrixFractionsValid checks the LP output respects the
// per-class time budget and cluster capacity.
func TestAllocationMatrixFractionsValid(t *testing.T) {
	c := heteroCluster()
	states := []*sched.JobState{
		newState(mkJob(0, 2, "A", 10, 5, 1)),
		newState(mkJob(1, 3, "B", 8, 6, 2)),
		newState(mkJob(2, 1, "C", 3, 3, 3)),
	}
	s := New()
	y := s.allocationMatrix(mkCtx(c, states...))
	capUsed := map[gpu.Type]float64{}
	for _, st := range states {
		frac := y[classKey(st.Job)]
		sum := 0.0
		for t2 := gpu.Type(0); t2 < gpu.NumTypes; t2++ {
			if frac[t2] < -1e-9 {
				t.Errorf("negative fraction for job %d on %v", st.Job.ID, t2)
			}
			sum += frac[t2]
			capUsed[t2] += frac[t2] * float64(st.Job.Workers)
		}
		if sum > 1+1e-6 {
			t.Errorf("job %d time fractions sum to %v > 1", st.Job.ID, sum)
		}
	}
	free := cluster.NewState(c)
	for _, t2 := range free.Types() {
		if capUsed[t2] > float64(free.CapacityOfType(t2))+1e-6 {
			t.Errorf("type %v over-subscribed: %v > %d", t2, capUsed[t2], free.CapacityOfType(t2))
		}
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
