package invariant

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
)

func testCluster() *cluster.Cluster {
	return cluster.New(gpu.Fleet{gpu.V100: 4}, gpu.Fleet{gpu.V100: 2, gpu.K80: 2})
}

func testJob(id, workers int) *job.Job {
	return &job.Job{
		ID: id, Name: "j", Model: "unit-test", Workers: workers,
		Epochs: 100, ItersPerEpoch: 10,
		Throughput: job.Rates{gpu.V100: 10, gpu.K80: 2},
	}
}

// rate adapts sched.Rate to the checker's model hook.
func rateOn(c *cluster.Cluster) func(j *job.Job, a cluster.Alloc) float64 {
	return func(j *job.Job, a cluster.Alloc) float64 { return sched.Rate(j, c, a) }
}

// round wraps one observation list into a checkable Round.
func round(c *cluster.Cluster, jobs ...JobRound) Round {
	return Round{Index: 0, Now: 0, Length: 360, Jobs: jobs, Rate: rateOn(c)}
}

func wantViolation(t *testing.T, k *Checker, rule string) {
	t.Helper()
	for _, v := range k.violations {
		if v.Rule == rule {
			if k.Err() == nil {
				t.Error("violations recorded but Err() is nil")
			}
			return
		}
	}
	t.Errorf("no %q violation; got %v", rule, k.violations)
}

func wantClean(t *testing.T, k *Checker) {
	t.Helper()
	if err := k.Err(); err != nil {
		t.Errorf("unexpected violations: %v", err)
	}
}

func TestCleanRoundPasses(t *testing.T) {
	c := testCluster()
	k := NewChecker(c)
	j := testJob(0, 2)
	a := cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 2}}
	// 2 workers x 10 it/s x 350s window = 7000 iterations.
	k.CheckRound(round(c, JobRound{
		Job: j, Alloc: a, RemainingBefore: 10000, RemainingAfter: 3000, Window: 350,
	}))
	wantClean(t, k)
}

func TestPausedJobMustNotProgress(t *testing.T) {
	c := testCluster()
	k := NewChecker(c)
	k.CheckRound(round(c, JobRound{
		Job: testJob(0, 2), RemainingBefore: 1000, RemainingAfter: 900, Window: 0,
	}))
	wantViolation(t, k, "conservation")
}

func TestKilledRoundMustNotProgress(t *testing.T) {
	c := testCluster()
	k := NewChecker(c)
	a := cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 2}}
	k.CheckRound(round(c, JobRound{
		Job: testJob(0, 2), Alloc: a, Killed: true,
		RemainingBefore: 1000, RemainingAfter: 500, Window: 350,
	}))
	wantViolation(t, k, "conservation")
}

func TestAllocatedJobMustProgressExactly(t *testing.T) {
	c := testCluster()
	a := cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 2}}
	// Too little progress (throttled below the bottleneck model).
	k := NewChecker(c)
	k.CheckRound(round(c, JobRound{
		Job: testJob(0, 2), Alloc: a, RemainingBefore: 10000, RemainingAfter: 9000, Window: 350,
	}))
	wantViolation(t, k, "conservation")
	// Too much progress (faster than the bottleneck allows).
	k = NewChecker(c)
	k.CheckRound(round(c, JobRound{
		Job: testJob(0, 2), Alloc: a, RemainingBefore: 10000, RemainingAfter: 100, Window: 350,
	}))
	wantViolation(t, k, "conservation")
}

func TestRemainingMustNotGrow(t *testing.T) {
	c := testCluster()
	k := NewChecker(c)
	k.CheckRound(round(c, JobRound{
		Job: testJob(0, 2), RemainingBefore: 100, RemainingAfter: 200, Window: 0,
	}))
	wantViolation(t, k, "conservation")
}

func TestGangViolation(t *testing.T) {
	c := testCluster()
	k := NewChecker(c)
	k.CheckRound(round(c, JobRound{
		Job:             testJob(0, 4),
		Alloc:           cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 3}},
		RemainingBefore: 1000, RemainingAfter: 1000, Window: 350,
	}))
	wantViolation(t, k, "gang")
}

func TestJointCapacityViolation(t *testing.T) {
	c := testCluster()
	k := NewChecker(c)
	// Two jobs individually fit node 0's 4 V100s but jointly need 6.
	mk := func(id int) JobRound {
		j := testJob(id, 3)
		return JobRound{
			Job:             j,
			Alloc:           cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 3}},
			RemainingBefore: 10000, RemainingAfter: 10000 - 3*10*350, Window: 350,
		}
	}
	k.CheckRound(round(c, mk(0), mk(1)))
	wantViolation(t, k, "capacity")
}

// TestCapacityViolationsInCellOrder checks that over-capacity cells are
// reported in ascending (node, type) order whatever order the jobs
// touched them in, and that one round's per-cell counts do not leak
// into the next.
func TestCapacityViolationsInCellOrder(t *testing.T) {
	c := testCluster()
	k := NewChecker(c)
	// Node 1 holds 2 V100 and 2 K80; node 0 holds 4 V100.
	job := func(id int, a cluster.Alloc) JobRound {
		return JobRound{Job: testJob(id, a.Workers()), Alloc: a, RemainingBefore: 100, RemainingAfter: 100, Killed: true}
	}
	k.CheckRound(round(c,
		job(0, cluster.Alloc{{Node: 1, Type: gpu.K80, Count: 3}}),
		job(1, cluster.Alloc{{Node: 1, Type: gpu.V100, Count: 2}, {Node: 0, Type: gpu.V100, Count: 4}}),
		job(2, cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 1}, {Node: 1, Type: gpu.V100, Count: 1}}),
	))
	var got []string
	for _, v := range k.violations {
		got = append(got, v.String())
	}
	want := []string{
		"round 0: capacity: node 0 V100: 5 allocated of 4",
		"round 0: capacity: node 1 V100: 3 allocated of 2",
		"round 0: capacity: node 1 K80: 3 allocated of 2",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("violations:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// Overbooked, clean, overbooked again on the same cell.
	k = NewChecker(c)
	v100 := func(id, n int) JobRound { return job(id, cluster.Alloc{{Node: 0, Type: gpu.V100, Count: n}}) }
	k.CheckRound(round(c, v100(0, 4), v100(1, 4)))
	k.CheckRound(round(c, v100(0, 4)))
	k.CheckRound(round(c, v100(0, 4), v100(1, 1)))
	got = got[:0]
	for _, v := range k.violations {
		got = append(got, v.Detail)
	}
	want = []string{"node 0 V100: 8 allocated of 4", "node 0 V100: 5 allocated of 4"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("violations over three rounds:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestInvalidPlacementViolations(t *testing.T) {
	c := testCluster()
	k := NewChecker(c)
	k.CheckRound(round(c, JobRound{
		Job:             testJob(0, 2),
		Alloc:           cluster.Alloc{{Node: 99, Type: gpu.V100, Count: 2}},
		RemainingBefore: 100, RemainingAfter: 100, Window: 350,
	}))
	wantViolation(t, k, "capacity")

	k = NewChecker(c)
	k.CheckRound(round(c, JobRound{
		Job:             testJob(0, 2),
		Alloc:           cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 3}, {Node: 0, Type: gpu.V100, Count: -1}},
		RemainingBefore: 100, RemainingAfter: 100, Window: 350,
	}))
	wantViolation(t, k, "capacity")
}

func TestUnusableTypeViolation(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2, gpu.P100: 2})
	k := NewChecker(c)
	j := testJob(0, 2) // cannot use P100
	k.CheckRound(round(c, JobRound{
		Job:             j,
		Alloc:           cluster.Alloc{{Node: 0, Type: gpu.P100, Count: 2}},
		RemainingBefore: 100, RemainingAfter: 100, Window: 350,
	}))
	wantViolation(t, k, "usable-type")
}

func TestDownNodeViolation(t *testing.T) {
	c := testCluster()
	k := NewChecker(c)
	r := round(c, JobRound{
		Job:             testJob(0, 2),
		Alloc:           cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 2}},
		RemainingBefore: 10000, RemainingAfter: 3000, Window: 350,
	})
	r.Down = map[int]bool{0: true}
	k.CheckRound(r)
	wantViolation(t, k, "down-node")
}

// fakePrices implements PriceReporter with a configurable curve.
type fakePrices struct {
	umin, umax []float64
	at         func(t gpu.Type, frac float64) float64
}

func (f fakePrices) PriceBounds() (umin, umax []float64)      { return f.umin, f.umax }
func (f fakePrices) PriceAt(t gpu.Type, frac float64) float64 { return f.at(t, frac) }

func TestPriceMonotonicityEnforced(t *testing.T) {
	c := testCluster()
	bounds := make([]float64, gpu.NumTypes)
	umax := make([]float64, gpu.NumTypes)
	for i := range bounds {
		bounds[i] = 1
		umax[i] = 10
	}
	// Decreasing curve: must be flagged.
	k := NewChecker(c)
	r := round(c)
	r.Scheduler = fakePrices{umin: bounds, umax: umax,
		at: func(_ gpu.Type, frac float64) float64 { return 10 - 9*frac }}
	k.CheckRound(r)
	wantViolation(t, k, "price")
	// Increasing curve within bounds: clean.
	k = NewChecker(c)
	r.Scheduler = fakePrices{umin: bounds, umax: umax,
		at: func(_ gpu.Type, frac float64) float64 { return 1 + 9*frac }}
	k.CheckRound(r)
	wantClean(t, k)
	// Curve escaping the reported bounds: flagged.
	k = NewChecker(c)
	r.Scheduler = fakePrices{umin: bounds, umax: umax,
		at: func(_ gpu.Type, frac float64) float64 { return 1 + 20*frac }}
	k.CheckRound(r)
	wantViolation(t, k, "price")
	// Inverted bounds: flagged.
	k = NewChecker(c)
	inv := make([]float64, gpu.NumTypes)
	for i := range inv {
		inv[i] = 100
	}
	r.Scheduler = fakePrices{umin: inv, umax: umax,
		at: func(_ gpu.Type, frac float64) float64 { return 1 }}
	k.CheckRound(r)
	wantViolation(t, k, "price")
}

// fakeCounter implements InconsistencyCounter.
type fakeCounter struct{ n int }

func (f fakeCounter) Inconsistencies() int { return f.n }

func TestInconsistencyGrowthFlagged(t *testing.T) {
	c := testCluster()
	k := NewChecker(c)
	r := round(c)
	r.Scheduler = fakeCounter{n: 0}
	k.CheckRound(r)
	wantClean(t, k)
	r.Scheduler = fakeCounter{n: 2}
	k.CheckRound(r)
	wantViolation(t, k, "inconsistency")
}

func cleanReport(c *cluster.Cluster, jobs []*job.Job) *metrics.Report {
	rep := &metrics.Report{Scheduler: "test", TotalGPUs: c.TotalGPUs()}
	for _, j := range jobs {
		// 1000 iters on 2 V100 at 10 it/s = 50s of work.
		rep.Jobs = append(rep.Jobs, metrics.JobResult{
			ID: j.ID, Workers: j.Workers, Arrival: 0, Start: 10, Finish: 70,
			TotalIters: j.TotalIters(),
		})
		if 70 > rep.Makespan {
			rep.Makespan = 70
		}
	}
	rep.BusyGPUSeconds = 100
	rep.HeldGPUSeconds = 720
	rep.RoundHeld = []int{2}
	rep.RoundStarts = []float64{0}
	return rep
}

func TestCleanReportPasses(t *testing.T) {
	c := testCluster()
	j := testJob(0, 2)
	j.Epochs, j.ItersPerEpoch = 100, 10 // 1000 iters: floor 50s < 60s span
	k := NewChecker(c)
	k.CheckReport(cleanReport(c, []*job.Job{j}), []*job.Job{j})
	wantClean(t, k)
}

func TestReportTimelineViolations(t *testing.T) {
	c := testCluster()
	j := testJob(0, 2)
	j.Epochs = 1 // tiny work so the physical floor never interferes

	rep := cleanReport(c, []*job.Job{j})
	rep.Jobs[0].Start = -5 // start before arrival
	k := NewChecker(c)
	k.CheckReport(rep, []*job.Job{j})
	wantViolation(t, k, "report")

	rep = cleanReport(c, []*job.Job{j})
	rep.Jobs[0].Finish = rep.Jobs[0].Start - 1
	k = NewChecker(c)
	k.CheckReport(rep, []*job.Job{j})
	wantViolation(t, k, "report")
}

func TestReportPhysicalFloorViolation(t *testing.T) {
	c := testCluster()
	j := testJob(0, 2) // 1000 iters, best 2x10 it/s: floor 50s
	rep := cleanReport(c, []*job.Job{j})
	rep.Jobs[0].Finish = rep.Jobs[0].Start + 10 // faster than physics
	k := NewChecker(c)
	k.CheckReport(rep, []*job.Job{j})
	wantViolation(t, k, "report")
}

func TestReportFloorRespectsStragglerSpeedups(t *testing.T) {
	// A node running at 2x nominal legitimately beats the nominal floor.
	c := testCluster()
	c.SetSpeed(0, 2.0)
	j := testJob(0, 2) // nominal floor 50s; with the 2x node, 25s
	rep := cleanReport(c, []*job.Job{j})
	rep.Jobs[0].Finish = rep.Jobs[0].Start + 30
	k := NewChecker(c)
	k.CheckReport(rep, []*job.Job{j})
	wantClean(t, k)
}

func TestReportAggregateViolations(t *testing.T) {
	c := testCluster()
	j := testJob(0, 2)

	rep := cleanReport(c, []*job.Job{j})
	rep.BusyGPUSeconds = rep.HeldGPUSeconds + 100 // util > 1
	k := NewChecker(c)
	k.CheckReport(rep, []*job.Job{j})
	wantViolation(t, k, "report")

	rep = cleanReport(c, []*job.Job{j})
	rep.RoundHeld = []int{c.TotalGPUs() + 1}
	k = NewChecker(c)
	k.CheckReport(rep, []*job.Job{j})
	wantViolation(t, k, "report")

	rep = cleanReport(c, []*job.Job{j})
	rep.Makespan = 1 // below the job's finish at 70
	k = NewChecker(c)
	k.CheckReport(rep, []*job.Job{j})
	wantViolation(t, k, "report")

	rep = cleanReport(c, []*job.Job{j})
	rep.Jobs = append(rep.Jobs, rep.Jobs[0]) // duplicate result
	k = NewChecker(c)
	k.CheckReport(rep, []*job.Job{j})
	wantViolation(t, k, "report")

	rep = cleanReport(c, []*job.Job{j})
	rep.Jobs[0].ID = 42 // unknown job
	k = NewChecker(c)
	k.CheckReport(rep, []*job.Job{j})
	wantViolation(t, k, "report")
}

func TestViolationCapAndErrSummary(t *testing.T) {
	c := testCluster()
	k := NewChecker(c)
	bad := JobRound{
		Job:             testJob(0, 4),
		Alloc:           cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 3}},
		RemainingBefore: 100, RemainingAfter: 100, Window: 350,
	}
	for i := 0; i < maxViolations+10; i++ {
		k.CheckRound(round(c, bad))
	}
	if len(k.violations) != maxViolations {
		t.Errorf("stored %d violations, cap is %d", len(k.violations), maxViolations)
	}
	err := k.Err()
	if err == nil || !strings.Contains(err.Error(), "violations") {
		t.Errorf("Err() = %v, want a multi-violation summary", err)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Round: 3, Rule: "gang", Detail: "x"}
	if !strings.Contains(v.String(), "round 3") {
		t.Errorf("round-level violation string %q lacks round", v)
	}
	v.Round = -1
	if !strings.Contains(v.String(), "report") {
		t.Errorf("report-level violation string %q lacks report marker", v)
	}
}
