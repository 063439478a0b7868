package service

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fifo is a minimal gang scheduler for driving the service in tests:
// keep running jobs where they are, then place queued jobs first-fit.
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

func simpleJob(id, workers int, iters float64) *job.Job {
	return &job.Job{
		ID: id, Name: "j", Model: "unit-test", Workers: workers,
		Epochs: int(iters), ItersPerEpoch: 1,
		Throughput: job.Rates{gpu.V100: 10, gpu.K80: 2},
	}
}

func twoNodeCluster() *cluster.Cluster {
	return cluster.New(gpu.Fleet{gpu.V100: 4}, gpu.Fleet{gpu.V100: 4, gpu.K80: 2})
}

// shape is one federation the shared cases run a service over: the
// single cluster New builds, or members two-node clusters behind a
// named router (NewFed).
type shape struct {
	members int
	router  string // "" for New's federation of one
	// hadar swaps New's fifo on two nodes for core.Scheduler, whose
	// decision map is lent until its next call, on the paper's 60-GPU
	// cluster, and the cases' jobs for a seeded Poisson trace.
	hadar bool
}

var (
	oneCluster = shape{members: 1}
	twoRegions = shape{members: 2, router: "least-queue"}
	hadarSim   = shape{members: 1, hadar: true}
)

// walShapes is what every durability case runs on: one member, and
// three members behind each built-in router.
func walShapes() []shape {
	shapes := []shape{oneCluster}
	for _, router := range federation.RouterNames() {
		shapes = append(shapes, shape{members: 3, router: router})
	}
	return shapes
}

func (sh shape) String() string {
	if sh.hadar {
		return "hadar-sim"
	}
	if sh.router == "" {
		return "one-cluster"
	}
	return fmt.Sprintf("%d-members-%s", sh.members, sh.router)
}

// federation builds the shape's fresh federation of validated two-node
// members.
func (sh shape) federation(t *testing.T) *federation.Federation {
	t.Helper()
	members := make([]federation.MemberConfig, sh.members)
	for i := range members {
		members[i] = federation.MemberConfig{
			Name:      fmt.Sprintf("region%d", i),
			Cluster:   twoNodeCluster(),
			Scheduler: fifo{},
			Sim:       sim.ValidatedOptions(),
		}
	}
	router, err := federation.NewRouter(sh.router)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := federation.New(members, router)
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

// build makes an unstarted service of this shape; every call builds a
// fresh federation, so a second call with Recover set is a restart.
func (sh shape) build(t *testing.T, opts Options) (*Service, error) {
	t.Helper()
	if sh.router != "" {
		return NewFed(sh.federation(t), opts)
	}
	if !opts.Sim.Validate {
		opts.Sim = sim.ValidatedOptions()
	}
	if sh.hadar {
		return New(experiments.SimCluster(), core.New(core.DefaultOptions()), opts)
	}
	return New(twoNodeCluster(), fifo{}, opts)
}

// service is build for a configuration that must be accepted.
func (sh shape) service(t *testing.T, opts Options) *Service {
	t.Helper()
	svc, err := sh.build(t, opts)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// verify replays the journal in dir against a fresh federation of this
// shape.
func (sh shape) verify(t *testing.T, dir string) *VerifyResult {
	t.Helper()
	var res *VerifyResult
	var err error
	if sh.router == "" {
		res, err = VerifyWAL(twoNodeCluster(), fifo{}, sim.ValidatedOptions(), dir)
	} else {
		res, err = VerifyFedWAL(sh.federation(t), dir)
	}
	if err != nil {
		t.Fatalf("verify journal: %v", err)
	}
	return res
}

// order is the web pages' expected report list: the scheduler's name for
// a single cluster, the member names otherwise.
func (sh shape) order() []string {
	if sh.router == "" {
		return []string{"test-fifo"}
	}
	names := make([]string, sh.members)
	for i := range names {
		names[i] = fmt.Sprintf("region%d", i)
	}
	return names
}

// jobs is a case's n submissions, IDs 0..n-1: simple(id) on the fifo
// shapes; on the Hadar shape, a seeded Poisson trace of 1, 2 and 4-GPU
// gangs, whose future arrivals also run the engine's idle fast-forward.
func (sh shape) jobs(t *testing.T, n int, simple func(id int) *job.Job) []*job.Job {
	t.Helper()
	if !sh.hadar {
		jobs := make([]*job.Job, n)
		for id := range jobs {
			jobs[id] = simple(id)
		}
		return jobs
	}
	jobs, err := trace.Generate(trace.Config{
		NumJobs: n, Seed: 1, Pattern: trace.Poisson, Rate: 0.05,
		WorkerChoices: []int{1, 2, 4}, WorkerWeights: []float64{0.5, 0.3, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	return oneCluster.service(t, opts)
}

// poll waits until cond holds or the deadline passes.
func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitFor polls the published snapshot until cond holds or the deadline
// passes.
func waitFor(t *testing.T, svc *Service, what string, cond func(*federation.FedSnapshot) bool) {
	t.Helper()
	poll(t, what, func() bool { return cond(svc.Snapshot()) })
}

func waitCompleted(t *testing.T, svc *Service, n int) {
	t.Helper()
	waitFor(t, svc, fmt.Sprintf("%d completions", n), func(s *federation.FedSnapshot) bool { return s.Completed == n })
}

// phaseOf is the snapshot's phase for the job, "" when no member knows
// it.
func phaseOf(s *federation.FedSnapshot, id int) string {
	_, phase, _, _, _ := s.FindJob(id)
	return phase
}

// rounds is the number of boundaries the members have processed.
func rounds(s *federation.FedSnapshot) int {
	n := 0
	for _, m := range s.Members {
		n += m.Snap.Round
	}
	return n
}

// drained reports a federation with nothing queued or running.
func drained(s *federation.FedSnapshot) bool { return s.Pending == 0 && s.Active == 0 }

// stopJobs is Stop reduced to the number of jobs in the final report,
// which must carry one report per member.
func stopJobs(t *testing.T, svc *Service) (jobs int, err error) {
	t.Helper()
	rep, err := svc.Stop()
	if rep == nil {
		return 0, err
	}
	if got, want := len(rep.Members), len(svc.Snapshot().Members); got != want {
		t.Errorf("report has %d members, want %d", got, want)
	}
	return len(rep.Merged.Jobs), err
}

// The shared cases below run once over a single cluster
// (TestService...) and once over a federation of two
// (TestFedService...): the same Service, the same assertions. The
// lifecycle and concurrent-client cases also run Hadar itself
// (TestHadarService...).

func TestServiceRunsJobsToCompletion(t *testing.T)      { caseLifecycle(t, oneCluster) }
func TestFedServiceRunsJobsToCompletion(t *testing.T)   { caseLifecycle(t, twoRegions) }
func TestHadarServiceRunsJobsToCompletion(t *testing.T) { caseLifecycle(t, hadarSim) }

func caseLifecycle(t *testing.T, sh shape) {
	svc := sh.service(t, Options{})
	svc.Start()
	jobs := sh.jobs(t, 6, func(id int) *job.Job { return simpleJob(id, 1+id%2, 5000) })
	for i, j := range jobs {
		if err := svc.Submit(j); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	waitCompleted(t, svc, 6)
	done, err := stopJobs(t, svc)
	if err != nil {
		t.Fatalf("stop: %v", err)
	}
	if done != 6 {
		t.Errorf("report has %d jobs, want 6", done)
	}
	st := svc.Stats()
	if st.Accepted != 6 || st.RejectedInvalid != 0 || st.Rounds == 0 {
		t.Errorf("stats = %+v, want 6 accepted, 0 invalid, >0 rounds", st)
	}
	// A second Stop returns the same result.
	if again, err := stopJobs(t, svc); err != nil || again != done {
		t.Errorf("second Stop = (%d jobs, %v), want (%d, nil)", again, err, done)
	}
}

func TestServiceValidationErrorsReachCaller(t *testing.T) { caseValidationErrors(t, oneCluster) }
func TestFedServiceValidationAndLifecycleErrors(t *testing.T) {
	caseValidationErrors(t, twoRegions)
}

func caseValidationErrors(t *testing.T, sh shape) {
	svc := sh.service(t, Options{})
	svc.Start()
	if err := svc.Submit(simpleJob(0, 1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(simpleJob(0, 1, 100)); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := svc.Submit(simpleJob(1, 99, 100)); err == nil {
		t.Error("unplaceable gang accepted")
	}
	if err := svc.Cancel(42); err == nil {
		t.Error("cancel of unknown job accepted")
	}
	if st := svc.Stats(); st.Accepted != 1 || st.RejectedInvalid != 2 {
		t.Errorf("stats = %+v, want 1 accepted, 2 invalid", st)
	}
	if _, err := stopJobs(t, svc); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if err := svc.Submit(simpleJob(9, 1, 100)); !errors.Is(err, ErrStopped) {
		t.Errorf("submit after stop = %v, want ErrStopped", err)
	}
	if err := svc.Cancel(0); !errors.Is(err, ErrStopped) {
		t.Errorf("cancel after stop = %v, want ErrStopped", err)
	}
}

func TestServiceCancelReflectedInSnapshot(t *testing.T)    { caseCancel(t, oneCluster) }
func TestFedServiceCancelReflectedInSnapshot(t *testing.T) { caseCancel(t, twoRegions) }

func caseCancel(t *testing.T, sh shape) {
	svc := sh.service(t, Options{})
	svc.Start()
	// A job far too long to complete within the test: the virtual
	// clock burns rounds in microseconds, so anything finite enough to
	// finish can race past the poller's "active" observation window.
	if err := svc.Submit(simpleJob(0, 2, 1e12)); err != nil {
		t.Fatal(err)
	}
	poll(t, "job 0 active", func() bool { return phaseOf(svc.Snapshot(), 0) == "active" })
	if err := svc.Cancel(0); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	poll(t, "job 0 cancelled", func() bool { return phaseOf(svc.Snapshot(), 0) == "cancelled" })
	if snap := svc.Snapshot(); snap.Cancelled != 1 || snap.Completed != 0 {
		t.Errorf("snapshot counts = %d cancelled %d completed, want 1/0", snap.Cancelled, snap.Completed)
	}
	if _, err := stopJobs(t, svc); err != nil {
		t.Fatalf("stop after cancel: %v", err)
	}
	if st := svc.Stats(); st.Cancelled != 1 {
		t.Errorf("stats.Cancelled = %d, want 1", st.Cancelled)
	}
}

func TestServiceSubmitKeyedDedupInMemory(t *testing.T) { caseIdempotencyLedger(t, oneCluster) }
func TestFedServiceIdempotencyLedger(t *testing.T)     { caseIdempotencyLedger(t, twoRegions) }

func caseIdempotencyLedger(t *testing.T, sh shape) {
	svc := sh.service(t, Options{})
	svc.Start()
	defer stopJobs(t, svc)
	id1, deduped, err := svc.SubmitKeyed("job-a", simpleJob(1, 1, 1e6))
	if err != nil || deduped {
		t.Fatalf("first keyed submit = (%d, %v, %v)", id1, deduped, err)
	}
	id2, deduped, err := svc.SubmitKeyed("job-a", simpleJob(2, 1, 1e6))
	if err != nil || !deduped || id2 != id1 {
		t.Fatalf("second keyed submit = (%d, %v, %v), want (%d, true, nil)", id2, deduped, err, id1)
	}
	if got := svc.Stats().Deduped; got != 1 {
		t.Errorf("deduped counter %d, want 1", got)
	}
	// The duplicate's job was never admitted.
	if phase := phaseOf(svc.Snapshot(), 2); phase != "" {
		t.Errorf("deduped submission still admitted job 2 (phase %q)", phase)
	}
}

func TestServiceBackpressure(t *testing.T)    { caseBackpressure(t, oneCluster) }
func TestFedServiceBackpressure(t *testing.T) { caseBackpressure(t, twoRegions) }

// caseBackpressure fills the admission queue of an unstarted service
// (requests park in the channel awaiting the loop) and checks the
// overflow call bounces with a retry hint instead of blocking.
func caseBackpressure(t *testing.T, sh shape) {
	svc := sh.service(t, Options{QueueDepth: 2, RetryAfter: 7 * time.Millisecond})
	replies := make(chan error, 2)
	go func() { replies <- svc.Submit(simpleJob(0, 1, 100)) }()
	go func() { replies <- svc.Submit(simpleJob(1, 1, 100)) }()
	poll(t, "a full queue", func() bool { return len(svc.reqs) == 2 })

	err := svc.Submit(simpleJob(2, 1, 100))
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("overflow submit returned %v, want *BusyError", err)
	}
	if busy.RetryAfter != 7*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 7ms", busy.RetryAfter)
	}
	if st := svc.Stats(); st.RejectedBusy != 1 {
		t.Errorf("RejectedBusy = %d, want 1", st.RejectedBusy)
	}

	// Starting the loop drains the parked requests successfully.
	svc.Start()
	for i := 0; i < 2; i++ {
		if err := <-replies; err != nil {
			t.Errorf("parked submit %d failed: %v", i, err)
		}
	}
	if _, err := stopJobs(t, svc); err != nil {
		t.Fatal(err)
	}
}

func TestServiceWallClock(t *testing.T)    { caseWallClock(t, oneCluster) }
func TestFedServiceWallClock(t *testing.T) { caseWallClock(t, twoRegions) }

func caseWallClock(t *testing.T, sh shape) {
	svc := sh.service(t, Options{Clock: WallClock, RoundInterval: time.Millisecond})
	svc.Start()
	for i := 0; i < 4; i++ {
		if err := svc.Submit(simpleJob(i, 1, 2000)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	waitCompleted(t, svc, 4)
	jobs, err := stopJobs(t, svc)
	if err != nil {
		t.Fatal(err)
	}
	if jobs != 4 {
		t.Errorf("report has %d jobs, want 4", jobs)
	}
}

func TestServiceProvider(t *testing.T)    { caseProvider(t, oneCluster) }
func TestFedServiceProvider(t *testing.T) { caseProvider(t, twoRegions) }

// caseProvider checks the report view the live web pages render from
// a service: one entry per scheduler (engine) or member (federation),
// each resolving to a snapshot-backed report.
func caseProvider(t *testing.T, sh shape) {
	svc := sh.service(t, Options{})
	svc.Start()
	defer stopJobs(t, svc)
	if err := svc.Submit(simpleJob(0, 1, 1000)); err != nil {
		t.Fatal(err)
	}
	waitCompleted(t, svc, 1)
	order := svc.Order()
	if !slices.Equal(order, sh.order()) {
		t.Fatalf("Order() = %v, want %v", order, sh.order())
	}
	jobs := 0
	for _, name := range order {
		rep, ok := svc.Report(name)
		if !ok || rep == nil {
			t.Fatalf("Report(%q) = (%v, %v)", name, rep, ok)
		}
		jobs += len(rep.Jobs)
	}
	if jobs != 1 {
		t.Errorf("reports hold %d jobs, want the 1 completed", jobs)
	}
	if _, ok := svc.Report("nonexistent"); ok {
		t.Error("Report accepted an unknown name")
	}
}

func TestServiceKill(t *testing.T)    { caseKill(t, oneCluster) }
func TestFedServiceKill(t *testing.T) { caseKill(t, twoRegions) }

// caseKill: a simulated crash ends the loop with ErrKilled and no
// final report, whichever backend it drives.
func caseKill(t *testing.T, sh shape) {
	svc := sh.service(t, Options{})
	svc.Start()
	if err := svc.Submit(simpleJob(0, 1, 1e12)); err != nil {
		t.Fatal(err)
	}
	svc.Kill()
	if jobs, err := stopJobs(t, svc); !errors.Is(err, ErrKilled) || jobs != 0 {
		t.Errorf("stop after kill = (%d jobs, %v), want (0, ErrKilled)", jobs, err)
	}
	if err := svc.Submit(simpleJob(1, 1, 100)); !errors.Is(err, ErrStopped) {
		t.Errorf("submit after kill = %v, want ErrStopped", err)
	}
}

func TestServiceConcurrentClients(t *testing.T)      { caseConcurrentClients(t, oneCluster) }
func TestFedServiceConcurrentClients(t *testing.T)   { caseConcurrentClients(t, twoRegions) }
func TestHadarServiceConcurrentClients(t *testing.T) { caseConcurrentClients(t, hadarSim) }

// caseConcurrentClients is the shared-clock/snapshot race test:
// submitters, cancellers, and snapshot readers hammer the service from
// many goroutines while the event loop advances the backend. Run under
// -race (make race-short / make race) it proves the copy-on-publish
// snapshot path and the single-owner loop share no unsynchronized
// state.
func caseConcurrentClients(t *testing.T, sh shape) {
	svc := sh.service(t, Options{QueueDepth: 256})
	svc.Start()
	const (
		writers    = 4
		perWriter  = 10
		readers    = 3
		cancellers = 2
		total      = writers * perWriter
	)
	jobs := sh.jobs(t, total, func(id int) *job.Job { return simpleJob(id, 1, 2000) })
	var wg sync.WaitGroup
	// Submitters: disjoint ID ranges, half keyed.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := w*perWriter + i
				var err error
				if i%2 == 0 {
					_, _, err = svc.SubmitKeyed(fmt.Sprintf("w%d-%d", w, i), jobs[id])
				} else {
					err = svc.Submit(jobs[id])
				}
				var busy *BusyError
				if errors.As(err, &busy) {
					time.Sleep(busy.RetryAfter)
					i-- // retry the same submission
					continue
				}
				if err != nil {
					t.Errorf("submit %d: %v", id, err)
					return
				}
			}
		}()
	}
	// Cancellers: best-effort cancels racing the submitters; every
	// verdict (accepted, unknown, already finished) is legal.
	stop := make(chan struct{})
	for c := 0; c < cancellers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; ; i += 7 {
				select {
				case <-stop:
					return
				default:
				}
				_ = svc.Cancel(i % total)
				time.Sleep(time.Millisecond)
			}
		}()
	}
	// Readers: resolve every job against each published snapshot. A
	// job seen once never becomes unknown again.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			known := make(map[int]bool)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for id := 0; id < total; id++ {
					if phase := phaseOf(svc.Snapshot(), id); phase != "" {
						known[id] = true
					} else if known[id] {
						t.Errorf("job %d vanished from the published snapshot", id)
						return
					}
				}
				if snap := svc.Snapshot(); snap.Completed+snap.Cancelled > total {
					t.Errorf("impossible snapshot: %d completed + %d cancelled of %d", snap.Completed, snap.Cancelled, total)
					return
				}
				_ = svc.Stats()
			}
		}()
	}
	poll(t, "all terminal", func() bool {
		snap := svc.Snapshot()
		return snap.Completed+snap.Cancelled >= total
	})
	close(stop)
	wg.Wait()
	if _, err := stopJobs(t, svc); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

func TestServiceStoppedRejectsRequests(t *testing.T) {
	svc := newTestService(t, Options{})
	svc.Start()
	if _, err := svc.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit(simpleJob(0, 1, 100)); !errors.Is(err, ErrStopped) {
		t.Errorf("submit after stop = %v, want ErrStopped", err)
	}
	if err := svc.Cancel(0); !errors.Is(err, ErrStopped) {
		t.Errorf("cancel after stop = %v, want ErrStopped", err)
	}
	// Stop is idempotent.
	if _, err := svc.Stop(); err != nil {
		t.Errorf("second stop: %v", err)
	}
}

func TestServiceNextIDFresh(t *testing.T) {
	svc := newTestService(t, Options{})
	a, b := svc.NextID(), svc.NextID()
	if a == b || a < 1<<20 || b < 1<<20 {
		t.Errorf("NextID() = %d, %d; want distinct IDs in the service range", a, b)
	}
}
