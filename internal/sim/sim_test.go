package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/sched"
)

// fifo is a minimal test scheduler: keeps running jobs where they are,
// then starts waiting jobs first-come-first-served on any free devices
// in descending-throughput order.
type fifo struct{}

func (fifo) Name() string { return "test-fifo" }

func (fifo) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	out := make(map[int]cluster.Alloc)
	free := ctx.Free
	defer free.Rollback(free.Savepoint())
	for _, st := range ctx.Jobs {
		if st.Running() && free.Allocate(st.Alloc) == nil {
			out[st.Job.ID] = st.Alloc
		}
	}
	for _, st := range ctx.Jobs {
		if _, ok := out[st.Job.ID]; ok {
			continue
		}
		if a, ok := sched.PlaceAnyType(free, sched.UsableTypes(st.Job), st.Job.Workers); ok {
			if err := free.Allocate(a); err == nil {
				out[st.Job.ID] = a
			}
		}
	}
	return out
}

// leaky books its first job on the lent state and returns without
// rolling back; stuck opens a savepoint and never closes it. Both break
// the lending contract of sched.Scheduler.
type leaky struct{ fifo }

func (leaky) Name() string { return "test-leaky" }
func (leaky) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	a, _ := sched.AllocAnyType(ctx.Free, sched.UsableTypes(ctx.Jobs[0].Job), ctx.Jobs[0].Job.Workers)
	return map[int]cluster.Alloc{ctx.Jobs[0].Job.ID: a}
}

type stuck struct{ fifo }

func (stuck) Name() string { return "test-stuck" }
func (s stuck) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	out := s.fifo.Schedule(ctx)
	ctx.Free.Savepoint()
	return out
}

// TestEngineRejectsUnreturnedState: the engine checks, every round,
// that the policy handed the lent state back as it found it, and names
// the policy that did not.
func TestEngineRejectsUnreturnedState(t *testing.T) {
	for _, s := range []sched.Scheduler{leaky{}, stuck{}} {
		_, err := Run(twoNodeCluster(), []*job.Job{simpleJob(0, 2, 1000, 0)}, s, ValidatedOptions())
		if err == nil || !strings.Contains(err.Error(), s.Name()+" did not return the lent free state") {
			t.Errorf("%s: err = %v, want the lending contract violation", s.Name(), err)
		}
	}
}

// churn reallocates every running job between two fixed placements each
// round to force reallocation penalties.
type churn struct{}

func (churn) Name() string { return "test-churn" }

func (churn) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	out := make(map[int]cluster.Alloc)
	if len(ctx.Jobs) == 0 {
		return out
	}
	st := ctx.Jobs[0]
	node := ctx.Round % 2 // bounce between node 0 and node 1
	out[st.Job.ID] = cluster.Alloc{{Node: node, Type: gpu.V100, Count: st.Job.Workers}}
	return out
}

// idle never allocates anything.
type idle struct{}

func (idle) Name() string                                  { return "test-idle" }
func (idle) Schedule(*sched.Context) map[int]cluster.Alloc { return nil }

// badGang allocates half a gang.
type badGang struct{}

func (badGang) Name() string { return "test-badgang" }
func (badGang) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	st := ctx.Jobs[0]
	return map[int]cluster.Alloc{
		st.Job.ID: {{Node: 0, Type: gpu.V100, Count: st.Job.Workers - 1}},
	}
}

// overbook allocates the same devices to two jobs.
type overbook struct{}

func (overbook) Name() string { return "test-overbook" }
func (overbook) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	out := make(map[int]cluster.Alloc)
	for _, st := range ctx.Jobs {
		out[st.Job.ID] = cluster.Alloc{{Node: 0, Type: gpu.V100, Count: st.Job.Workers}}
	}
	return out
}

// ghost allocates to a nonexistent job ID.
type ghost struct{}

func (ghost) Name() string { return "test-ghost" }
func (ghost) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	return map[int]cluster.Alloc{
		99999: {{Node: 0, Type: gpu.V100, Count: 1}},
	}
}

func simpleJob(id, workers int, iters float64, arrival float64) *job.Job {
	return &job.Job{
		ID: id, Name: "j", Model: "unit-test", Workers: workers,
		Epochs: int(iters), ItersPerEpoch: 1, Arrival: arrival,
		Throughput: job.Rates{gpu.V100: 10, gpu.K80: 2},
	}
}

func twoNodeCluster() *cluster.Cluster {
	return cluster.New(gpu.Fleet{gpu.V100: 4}, gpu.Fleet{gpu.V100: 4, gpu.K80: 2})
}

func TestSingleJobExactJCT(t *testing.T) {
	c := twoNodeCluster()
	j := simpleJob(0, 2, 1000, 0) // 1000 iters at 2x10 iters/s = 50s work
	opts := ValidatedOptions()
	r, err := Run(c, []*job.Job{j}, fifo{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Jobs) != 1 {
		t.Fatalf("completed %d jobs", len(r.Jobs))
	}
	// First allocation pays the 10s flat delay, then 50s of work.
	want := 10.0 + 50.0
	if got := r.Jobs[0].JCT(); math.Abs(got-want) > 1e-9 {
		t.Errorf("JCT = %v, want %v", got, want)
	}
	if r.Makespan != want {
		t.Errorf("Makespan = %v, want %v", r.Makespan, want)
	}
}

func TestMultiRoundProgress(t *testing.T) {
	c := twoNodeCluster()
	// 20000 iters at 20 iters/s = 1000s of work: needs 3 rounds
	// (350 + 360 + rest with the initial 10s stall in round 1).
	j := simpleJob(0, 2, 20000, 0)
	r, err := Run(c, []*job.Job{j}, fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := 10.0 + 1000.0
	if got := r.Jobs[0].JCT(); math.Abs(got-want) > 1e-9 {
		t.Errorf("JCT = %v, want %v", got, want)
	}
	if r.Rounds != 3 {
		t.Errorf("Rounds = %d, want 3", r.Rounds)
	}
}

func TestBusySecondsAndUtilizationBound(t *testing.T) {
	c := twoNodeCluster()
	jobs := []*job.Job{
		simpleJob(0, 2, 5000, 0),
		simpleJob(1, 4, 8000, 0),
		simpleJob(2, 1, 2000, 0),
	}
	r, err := Run(c, jobs, fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if u := r.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization = %v out of (0,1]", u)
	}
	// Busy seconds must equal sum over jobs of iters/perWorkerRate
	// (workers * iters / (workers*rate)) when all run on V100.
	wantBusy := (5000.0/20)*2 + (8000.0/40)*4 + (2000.0/10)*1
	if math.Abs(r.BusyGPUSeconds-wantBusy) > 1e-6 {
		t.Errorf("BusyGPUSeconds = %v, want %v", r.BusyGPUSeconds, wantBusy)
	}
}

func TestWorkConservation(t *testing.T) {
	c := twoNodeCluster()
	jobs := []*job.Job{
		simpleJob(0, 2, 5000, 0),
		simpleJob(1, 4, 8000, 100),
		simpleJob(2, 6, 12000, 700),
	}
	r, err := Run(c, jobs, fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Jobs) != 3 {
		t.Fatalf("completed %d jobs, want 3", len(r.Jobs))
	}
	total := 0.0
	for _, jr := range r.Jobs {
		total += jr.TotalIters
	}
	if total != 25000 {
		t.Errorf("recorded iters = %v, want 25000", total)
	}
}

func TestLateArrivalFastForward(t *testing.T) {
	c := twoNodeCluster()
	j := simpleJob(0, 1, 100, 3600.5) // arrives mid-round
	r, err := Run(c, []*job.Job{j}, fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Admitted at the next boundary (3960), 10s stall, 10s work.
	want := 3960.0 + 10 + 10
	if got := r.Jobs[0].Finish; math.Abs(got-want) > 1e-9 {
		t.Errorf("Finish = %v, want %v", got, want)
	}
	if got := r.Jobs[0].Start; got != 3960 {
		t.Errorf("Start = %v, want 3960", got)
	}
}

func TestArrivalExactlyOnBoundary(t *testing.T) {
	c := twoNodeCluster()
	j := simpleJob(0, 1, 100, 720)
	r, err := Run(c, []*job.Job{j}, fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Jobs[0].Start; got != 720 {
		t.Errorf("Start = %v, want 720 (boundary arrival admits same round)", got)
	}
}

func TestChurnPaysReallocationEveryRound(t *testing.T) {
	c := twoNodeCluster()
	// 14000 iters at 10 iters/s (1 worker) = 1400s: 4 rounds of churn.
	j := simpleJob(0, 1, 14000, 0)
	rChurn, err := Run(c, []*job.Job{j}, churn{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	rSticky, err := Run(c, []*job.Job{j}, fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rChurn.Jobs[0].JCT() <= rSticky.Jobs[0].JCT() {
		t.Errorf("churn JCT %v not worse than sticky %v",
			rChurn.Jobs[0].JCT(), rSticky.Jobs[0].JCT())
	}
	// Every round after the first is a reallocation for churn.
	if rChurn.JobRoundReallocs != rChurn.JobRoundAllocs-1 {
		t.Errorf("churn reallocs = %d of %d job-rounds",
			rChurn.JobRoundReallocs, rChurn.JobRoundAllocs)
	}
	if rSticky.JobRoundReallocs != 0 {
		t.Errorf("sticky scheduler recorded %d reallocs", rSticky.JobRoundReallocs)
	}
	if rChurn.Jobs[0].Reallocations == 0 {
		t.Error("per-job reallocation count not recorded")
	}
}

func TestModelCostMode(t *testing.T) {
	c := twoNodeCluster()
	mk := func() *job.Job {
		j := simpleJob(0, 1, 7000, 0) // ~700s of work: 3 rounds
		j.Model = "ResNet-50"
		return j
	}
	optsFlat := ValidatedOptions()
	optsModel := ValidatedOptions()
	optsModel.UseModelCosts = true
	rFlat, err := Run(c, []*job.Job{mk()}, fifo{}, optsFlat)
	if err != nil {
		t.Fatal(err)
	}
	rModel, err := Run(c, []*job.Job{mk()}, fifo{}, optsModel)
	if err != nil {
		t.Fatal(err)
	}
	// Model mode charges a periodic save every round even without
	// reallocation, but its restore (7.56s) is smaller than the flat
	// 10s; either way the JCTs must differ and both exceed pure work.
	if rFlat.Jobs[0].JCT() == rModel.Jobs[0].JCT() {
		t.Error("model-cost mode had no effect")
	}
	if rModel.Jobs[0].JCT() <= 700 {
		t.Errorf("model-cost JCT %v does not include checkpoint time", rModel.Jobs[0].JCT())
	}
}

func TestQuantizedCompletions(t *testing.T) {
	c := twoNodeCluster()
	j := simpleJob(0, 2, 1000, 0)
	opts := ValidatedOptions()
	opts.QuantizeCompletions = true
	r, err := Run(c, []*job.Job{j}, fifo{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Jobs[0].Finish; got != 360 {
		t.Errorf("quantized finish = %v, want 360", got)
	}
}

func TestGangViolationRejected(t *testing.T) {
	c := twoNodeCluster()
	_, err := Run(c, []*job.Job{simpleJob(0, 2, 100, 0)}, badGang{}, ValidatedOptions())
	if err == nil || !strings.Contains(err.Error(), "gang") {
		t.Errorf("gang violation not rejected: %v", err)
	}
}

func TestOverbookingRejected(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 4})
	jobs := []*job.Job{simpleJob(0, 3, 100, 0), simpleJob(1, 3, 100, 0)}
	_, err := Run(c, jobs, overbook{}, ValidatedOptions())
	if err == nil || !strings.Contains(err.Error(), "over-allocated") {
		t.Errorf("overbooking not rejected: %v", err)
	}
}

func TestGhostAllocationRejected(t *testing.T) {
	c := twoNodeCluster()
	_, err := Run(c, []*job.Job{simpleJob(0, 1, 100, 0)}, ghost{}, ValidatedOptions())
	if err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("ghost allocation not rejected: %v", err)
	}
}

func TestStarvationDetected(t *testing.T) {
	c := twoNodeCluster()
	opts := ValidatedOptions()
	opts.StallLimit = 10
	_, err := Run(c, []*job.Job{simpleJob(0, 1, 100, 0)}, idle{}, opts)
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Errorf("starvation not detected: %v", err)
	}
}

func TestImpossibleJobRejectedUpfront(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2})
	_, err := Run(c, []*job.Job{simpleJob(0, 3, 100, 0)}, fifo{}, ValidatedOptions())
	if err == nil || !strings.Contains(err.Error(), "never be placed") {
		t.Errorf("oversized job accepted: %v", err)
	}
}

func TestUnusableTypeCountsExcluded(t *testing.T) {
	// Job can only use V100 but the cluster is K80-rich: unplaceable.
	c := cluster.New(gpu.Fleet{gpu.V100: 1, gpu.K80: 8})
	j := simpleJob(0, 2, 100, 0)
	j.Throughput = job.Rates{gpu.V100: 10}
	_, err := Run(c, []*job.Job{j}, fifo{}, ValidatedOptions())
	if err == nil {
		t.Error("job unplaceable on usable types accepted")
	}
}

func TestEmptyTraceRejected(t *testing.T) {
	if _, err := Run(twoNodeCluster(), nil, fifo{}, ValidatedOptions()); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestBadOptionsRejected(t *testing.T) {
	c := twoNodeCluster()
	jobs := []*job.Job{simpleJob(0, 1, 100, 0)}
	opts := ValidatedOptions()
	opts.RoundLength = 0
	if _, err := Run(c, jobs, fifo{}, opts); err == nil {
		t.Error("zero round length accepted")
	}
	opts = ValidatedOptions()
	opts.FlatDelay = 400
	if _, err := Run(c, jobs, fifo{}, opts); err == nil {
		t.Error("delay longer than round accepted")
	}
}

func TestDeterminism(t *testing.T) {
	c := twoNodeCluster()
	mkJobs := func() []*job.Job {
		return []*job.Job{
			simpleJob(0, 2, 5000, 0),
			simpleJob(1, 4, 9000, 50),
			simpleJob(2, 1, 3000, 400),
		}
	}
	a, err := Run(c, mkJobs(), fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(c, mkJobs(), fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Jobs {
		if a.Jobs[i].Finish != b.Jobs[i].Finish {
			t.Fatalf("run not deterministic: job %d finish %v vs %v",
				a.Jobs[i].ID, a.Jobs[i].Finish, b.Jobs[i].Finish)
		}
	}
}

func TestRunDoesNotMutateInputOrder(t *testing.T) {
	c := twoNodeCluster()
	jobs := []*job.Job{
		simpleJob(5, 1, 100, 500),
		simpleJob(3, 1, 100, 0),
	}
	if _, err := Run(c, jobs, fifo{}, ValidatedOptions()); err != nil {
		t.Fatal(err)
	}
	if jobs[0].ID != 5 || jobs[1].ID != 3 {
		t.Error("Run reordered the caller's trace slice")
	}
}

// TestRunAdmitsReverseOrderedTraceInArrivalOrder feeds Run a 20 000-job
// trace sorted the wrong way round, with eight jobs sharing every
// arrival time: jobs must still be admitted by ascending (arrival, ID).
// Reverse order is the worst case for a quadratic sort, which at this
// size takes seconds; the assertion is on order, not on time.
func TestRunAdmitsReverseOrderedTraceInArrivalOrder(t *testing.T) {
	const n = 20000
	jobs := make([]*job.Job, n)
	for i := range jobs {
		id := n - 1 - i
		jobs[i] = simpleJob(id, 1, 1, float64(id/8))
	}
	var buf bytes.Buffer
	opts := ValidatedOptions()
	opts.EventLog = &buf
	if _, err := Run(cluster.Homogeneous(50, gpu.V100, 8), jobs, fifo{}, opts); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for _, e := range events {
		if e.Type != EventArrive {
			continue
		}
		if e.Job != next {
			t.Fatalf("admission %d was job %d, want job %d", next, e.Job, next)
		}
		next++
	}
	if next != n {
		t.Fatalf("%d jobs admitted, want %d", next, n)
	}
}

func TestStragglerSlowsJob(t *testing.T) {
	cFast := cluster.New(gpu.Fleet{gpu.V100: 2})
	cSlow := cluster.New(gpu.Fleet{gpu.V100: 2})
	cSlow.SetSpeed(0, 0.5)
	mk := func() *job.Job { return simpleJob(0, 2, 4000, 0) }
	rf, err := Run(cFast, []*job.Job{mk()}, fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(cSlow, []*job.Job{mk()}, fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Jobs[0].JCT() <= rf.Jobs[0].JCT() {
		t.Errorf("straggler JCT %v not worse than nominal %v",
			rs.Jobs[0].JCT(), rf.Jobs[0].JCT())
	}
}

func TestDecisionAccounting(t *testing.T) {
	c := twoNodeCluster()
	r, err := Run(c, []*job.Job{simpleJob(0, 1, 5000, 0)}, fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Decisions != r.Rounds || r.Decisions == 0 {
		t.Errorf("Decisions = %d, Rounds = %d", r.Decisions, r.Rounds)
	}
}

// multiChurn reallocates two jobs between nodes every round, always
// leaving both on node 0 or both on node 1, so their checkpoints contend
// on the same SSD when contention modeling is enabled.
type multiChurn struct{}

func (multiChurn) Name() string { return "test-multichurn" }
func (multiChurn) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	out := make(map[int]cluster.Alloc)
	node := ctx.Round % 2
	for _, st := range ctx.Jobs {
		out[st.Job.ID] = cluster.Alloc{{Node: node, Type: gpu.V100, Count: st.Job.Workers}}
	}
	return out
}

func TestCheckpointContentionSlowsColocatedRestarts(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 4}, gpu.Fleet{gpu.V100: 4})
	mkJobs := func() []*job.Job {
		return []*job.Job{simpleJob(0, 2, 20000, 0), simpleJob(1, 2, 20000, 0)}
	}
	base := ValidatedOptions()
	withContention := ValidatedOptions()
	withContention.CheckpointContention = true
	r1, err := Run(c, mkJobs(), multiChurn{}, base)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(c, mkJobs(), multiChurn{}, withContention)
	if err != nil {
		t.Fatal(err)
	}
	if !(r2.AvgJCT() > r1.AvgJCT()) {
		t.Errorf("contention did not slow colocated churn: %v vs %v", r2.AvgJCT(), r1.AvgJCT())
	}
}

func TestCheckpointContentionNoEffectWithoutRealloc(t *testing.T) {
	c := twoNodeCluster()
	mk := func() *job.Job { return simpleJob(0, 2, 20000, 0) }
	base := ValidatedOptions()
	withContention := ValidatedOptions()
	withContention.CheckpointContention = true
	r1, err := Run(c, []*job.Job{mk()}, fifo{}, base)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(c, []*job.Job{mk()}, fifo{}, withContention)
	if err != nil {
		t.Fatal(err)
	}
	if r1.AvgJCT() != r2.AvgJCT() {
		t.Errorf("contention changed a sticky run: %v vs %v", r1.AvgJCT(), r2.AvgJCT())
	}
}

func TestFailureHidesNodeFromScheduler(t *testing.T) {
	// Node 0 (the only V100-rich node) is down for rounds 1-2; the
	// sticky FIFO scheduler must move the job to node 1 and the job
	// still completes.
	c := cluster.New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.V100: 2})
	j := simpleJob(0, 2, 20000, 0) // ~1000s of work
	opts := ValidatedOptions()
	opts.Failures = []Failure{{Node: 0, Start: 360, End: 1080}}
	r, err := Run(c, []*job.Job{j}, fifo{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Jobs) != 1 {
		t.Fatal("job did not complete despite a spare node")
	}
	// The forced migration costs at least one reallocation.
	if r.JobRoundReallocs == 0 {
		t.Error("failure did not force a reallocation")
	}
}

func TestSurpriseFailureLosesRoundProgress(t *testing.T) {
	// The outage begins mid-round 0 (t=100): the scheduler could not
	// see it at t=0, so round 0's work is lost; with only one node the
	// job waits out the outage and finishes late.
	c := cluster.New(gpu.Fleet{gpu.V100: 2})
	mk := func() *job.Job { return simpleJob(0, 2, 1000, 0) } // 50s work
	clean := ValidatedOptions()
	rClean, err := Run(c, []*job.Job{mk()}, fifo{}, clean)
	if err != nil {
		t.Fatal(err)
	}
	faulty := ValidatedOptions()
	faulty.Failures = []Failure{{Node: 0, Start: 100, End: 700}}
	rFaulty, err := Run(c, []*job.Job{mk()}, fifo{}, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if rFaulty.Jobs[0].JCT() <= rClean.Jobs[0].JCT() {
		t.Errorf("failure did not delay the job: %v vs %v",
			rFaulty.Jobs[0].JCT(), rClean.Jobs[0].JCT())
	}
	// The job must restart after the node recovers: finish after 720s.
	if rFaulty.Jobs[0].Finish < 720 {
		t.Errorf("finish %v before recovery", rFaulty.Jobs[0].Finish)
	}
}

// capacityProbe wraps fifo and records node 0's V100 capacity as the
// scheduler saw it each round.
type capacityProbe struct {
	inner fifo
	caps  *[]int
}

func (p capacityProbe) Name() string { return "test-capacity-probe" }
func (p capacityProbe) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	*p.caps = append(*p.caps, ctx.Free.Capacity(0, gpu.V100))
	return p.inner.Schedule(ctx)
}

func TestFailureExcludedFromSchedulerView(t *testing.T) {
	// Node 0 is down for rounds 1-2 ([360, 1080)): the scheduler must
	// see it with zero capacity exactly for those rounds and full
	// capacity again once the outage ends.
	c := cluster.New(gpu.Fleet{gpu.V100: 2}, gpu.Fleet{gpu.V100: 2})
	var caps []int
	opts := ValidatedOptions()
	opts.Failures = []Failure{{Node: 0, Start: 360, End: 1080}}
	if _, err := Run(c, []*job.Job{simpleJob(0, 2, 40000, 0)}, capacityProbe{caps: &caps}, opts); err != nil {
		t.Fatal(err)
	}
	if len(caps) < 4 {
		t.Fatalf("only %d rounds ran", len(caps))
	}
	want := []int{2, 0, 0, 2}
	for i, w := range want {
		if caps[i] != w {
			t.Errorf("round %d: scheduler saw capacity %d on node 0, want %d", i, caps[i], w)
		}
	}
}

func TestFailureFaultCountersAccounted(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2})
	clean, err := Run(c, []*job.Job{simpleJob(0, 2, 1000, 0)}, fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if clean.Faults.Any() {
		t.Errorf("fault counters nonzero without failures: %+v", clean.Faults)
	}

	// The outage begins mid-round 0 (invisible to the scheduler at
	// t=0), so the job's entire 1000 iterations were in flight and are
	// lost; the node is seen down for round 1 and up again at t=720.
	opts := ValidatedOptions()
	opts.Failures = []Failure{{Node: 0, Start: 100, End: 700}}
	r, err := Run(c, []*job.Job{simpleJob(0, 2, 1000, 0)}, fifo{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	f := r.Faults
	if f.NodeDown != 1 || f.NodeUp != 1 {
		t.Errorf("node transitions = %d down / %d up, want 1/1", f.NodeDown, f.NodeUp)
	}
	if f.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1 (one killed round)", f.Recoveries)
	}
	if f.LostIterations != 1000 {
		t.Errorf("lost iterations = %v, want 1000 (full remaining work)", f.LostIterations)
	}
}

func TestFailureWindowValidation(t *testing.T) {
	c := twoNodeCluster()
	opts := ValidatedOptions()
	opts.Failures = []Failure{{Node: 0, Start: 100, End: 100}}
	if _, err := Run(c, []*job.Job{simpleJob(0, 1, 100, 0)}, fifo{}, opts); err == nil {
		t.Error("empty failure window accepted")
	}
}

func TestFailureOfWholeClusterStalls(t *testing.T) {
	c := cluster.New(gpu.Fleet{gpu.V100: 2})
	opts := ValidatedOptions()
	opts.StallLimit = 5
	opts.Failures = []Failure{{Node: 0, Start: 0, End: 1e9}}
	_, err := Run(c, []*job.Job{simpleJob(0, 1, 100, 0)}, fifo{}, opts)
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Errorf("permanent outage not detected as stall: %v", err)
	}
}

func TestEventLogRecordsLifecycle(t *testing.T) {
	c := twoNodeCluster()
	jobs := []*job.Job{
		simpleJob(0, 2, 20000, 0), // ~1000s: spans the outage window
		simpleJob(1, 2, 5000, 400),
	}
	var buf bytes.Buffer
	opts := ValidatedOptions()
	opts.EventLog = &buf
	opts.Failures = []Failure{{Node: 1, Start: 360, End: 720}}
	if _, err := Run(c, jobs, fifo{}, opts); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[EventType]int{}
	for _, e := range events {
		counts[e.Type]++
	}
	if counts[EventArrive] != 2 {
		t.Errorf("arrive events = %d, want 2", counts[EventArrive])
	}
	if counts[EventStart] != 2 {
		t.Errorf("start events = %d, want 2", counts[EventStart])
	}
	if counts[EventFinish] != 2 {
		t.Errorf("finish events = %d, want 2", counts[EventFinish])
	}
	if counts[EventNodeDown] != 1 || counts[EventNodeUp] != 1 {
		t.Errorf("node events = %d down / %d up, want 1/1",
			counts[EventNodeDown], counts[EventNodeUp])
	}
	// Events are time-ordered per type sequence: every job's arrive
	// precedes its start precedes its finish.
	seen := map[int]EventType{}
	for _, e := range events {
		if e.Job < 0 {
			continue
		}
		switch e.Type {
		case EventStart:
			if seen[e.Job] != EventArrive {
				t.Errorf("job %d started before arriving", e.Job)
			}
		case EventFinish:
			if seen[e.Job] != EventStart && seen[e.Job] != EventRealloc {
				t.Errorf("job %d finished from state %v", e.Job, seen[e.Job])
			}
		}
		seen[e.Job] = e.Type
	}
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	if _, err := ReadEvents(strings.NewReader("{not json}\n")); err == nil {
		t.Error("garbage event log accepted")
	}
	events, err := ReadEvents(strings.NewReader(""))
	if err != nil || len(events) != 0 {
		t.Errorf("empty log: %v %v", events, err)
	}
}
