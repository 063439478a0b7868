package service

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/federation"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
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
		Throughput: map[gpu.Type]float64{gpu.V100: 10, gpu.K80: 2},
	}
}

func twoNodeCluster() *cluster.Cluster {
	return cluster.New(gpu.Fleet{gpu.V100: 4}, gpu.Fleet{gpu.V100: 4, gpu.K80: 2})
}

func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	if !opts.Sim.Validate {
		opts.Sim = sim.ValidatedOptions()
	}
	svc, err := New(twoNodeCluster(), fifo{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// newTestFederation builds n validated two-node members behind the
// least-queue router.
func newTestFederation(t *testing.T, n int) *federation.Federation {
	t.Helper()
	members := make([]federation.MemberConfig, n)
	for i := range members {
		members[i] = federation.MemberConfig{
			Name:      fmt.Sprintf("region%d", i),
			Cluster:   twoNodeCluster(),
			Scheduler: fifo{},
			Sim:       sim.ValidatedOptions(),
		}
	}
	router, err := federation.NewRouter("least-queue")
	if err != nil {
		t.Fatal(err)
	}
	fed, err := federation.New(members, router, federation.Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	return fed
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

// waitFor polls the engine snapshot until cond holds or the deadline
// passes.
func waitFor(t *testing.T, svc *Service, what string, cond func(*sim.Snapshot) bool) {
	t.Helper()
	poll(t, what, func() bool { return cond(svc.Snapshot()) })
}

// The shared cases below are one table over two backends: every
// case* function runs against the single engine (TestService...) and
// against a federation of two (TestFedService...) through the harness
// value, which hides the only things that differ — the snapshot and
// report types.
type harness struct {
	svc interface {
		Start()
		Kill()
		Submit(*job.Job) error
		SubmitKeyed(string, *job.Job) (int, bool, error)
		Cancel(int) error
		Stats() Stats
		Order() []string
		Report(string) (*metrics.Report, bool)
	}
	// stop is Stop reduced to the number of jobs in the final report.
	stop func() (jobs int, err error)
	// counts and phase read the latest published snapshot; phase is ""
	// for a job the backend never accepted.
	counts func() (completed, cancelled int)
	phase  func(id int) string
	// queued is the admission queue's current length.
	queued func() int
	// order is the Provider view's expected scheduler list.
	order []string
}

type newHarness func(*testing.T, Options) harness

// phaseOf is the snapshot's phase for the job, "" when it knows none.
func phaseOf(s *sim.Snapshot, id int) string {
	phase, _ := s.Phases.Get(id)
	return phase
}

func engineHarness(t *testing.T, opts Options) harness {
	svc := newTestService(t, opts)
	return harness{
		svc: svc,
		stop: func() (int, error) {
			rep, err := svc.Stop()
			if rep == nil {
				return 0, err
			}
			return len(rep.Jobs), err
		},
		counts: func() (int, int) { s := svc.Snapshot(); return s.Completed, s.Cancelled },
		phase:  func(id int) string { return phaseOf(svc.Snapshot(), id) },
		queued: func() int { return len(svc.reqs) },
		order:  []string{"test-fifo"},
	}
}

func fedHarness(t *testing.T, opts Options) harness {
	t.Helper()
	svc, err := NewFed(newTestFederation(t, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	return harness{
		svc: svc,
		stop: func() (int, error) {
			rep, err := svc.Stop()
			if rep == nil {
				return 0, err
			}
			if len(rep.Members) != 2 {
				t.Errorf("report has %d members, want 2", len(rep.Members))
			}
			return len(rep.Merged.Jobs), err
		},
		counts: func() (int, int) { s := svc.Snapshot(); return s.Completed, s.Cancelled },
		phase: func(id int) string {
			_, phase, _, _, _ := svc.Snapshot().FindJob(id)
			return phase
		},
		queued: func() int { return len(svc.reqs) },
		order:  []string{"region0", "region1"},
	}
}

func (b harness) waitCompleted(t *testing.T, n int) {
	t.Helper()
	poll(t, fmt.Sprintf("%d completions", n), func() bool { c, _ := b.counts(); return c == n })
}

func TestServiceRunsJobsToCompletion(t *testing.T)    { caseLifecycle(t, engineHarness) }
func TestFedServiceRunsJobsToCompletion(t *testing.T) { caseLifecycle(t, fedHarness) }

func caseLifecycle(t *testing.T, mk newHarness) {
	b := mk(t, Options{})
	b.svc.Start()
	for i := 0; i < 6; i++ {
		if err := b.svc.Submit(simpleJob(i, 1+i%2, 5000)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	b.waitCompleted(t, 6)
	jobs, err := b.stop()
	if err != nil {
		t.Fatalf("stop: %v", err)
	}
	if jobs != 6 {
		t.Errorf("report has %d jobs, want 6", jobs)
	}
	st := b.svc.Stats()
	if st.Accepted != 6 || st.RejectedInvalid != 0 || st.Rounds == 0 {
		t.Errorf("stats = %+v, want 6 accepted, 0 invalid, >0 rounds", st)
	}
	// A second Stop returns the same result.
	if again, err := b.stop(); err != nil || again != jobs {
		t.Errorf("second Stop = (%d jobs, %v), want (%d, nil)", again, err, jobs)
	}
}

func TestServiceValidationErrorsReachCaller(t *testing.T) { caseValidationErrors(t, engineHarness) }
func TestFedServiceValidationAndLifecycleErrors(t *testing.T) {
	caseValidationErrors(t, fedHarness)
}

func caseValidationErrors(t *testing.T, mk newHarness) {
	b := mk(t, Options{})
	b.svc.Start()
	if err := b.svc.Submit(simpleJob(0, 1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := b.svc.Submit(simpleJob(0, 1, 100)); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := b.svc.Submit(simpleJob(1, 99, 100)); err == nil {
		t.Error("unplaceable gang accepted")
	}
	if err := b.svc.Cancel(42); err == nil {
		t.Error("cancel of unknown job accepted")
	}
	if st := b.svc.Stats(); st.Accepted != 1 || st.RejectedInvalid != 2 {
		t.Errorf("stats = %+v, want 1 accepted, 2 invalid", st)
	}
	if _, err := b.stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if err := b.svc.Submit(simpleJob(9, 1, 100)); !errors.Is(err, ErrStopped) {
		t.Errorf("submit after stop = %v, want ErrStopped", err)
	}
	if err := b.svc.Cancel(0); !errors.Is(err, ErrStopped) {
		t.Errorf("cancel after stop = %v, want ErrStopped", err)
	}
}

func TestServiceCancelReflectedInSnapshot(t *testing.T)    { caseCancel(t, engineHarness) }
func TestFedServiceCancelReflectedInSnapshot(t *testing.T) { caseCancel(t, fedHarness) }

func caseCancel(t *testing.T, mk newHarness) {
	b := mk(t, Options{})
	b.svc.Start()
	// A job far too long to complete within the test: the virtual
	// clock burns rounds in microseconds, so anything finite enough to
	// finish can race past the poller's "active" observation window.
	if err := b.svc.Submit(simpleJob(0, 2, 1e12)); err != nil {
		t.Fatal(err)
	}
	poll(t, "job 0 active", func() bool { return b.phase(0) == "active" })
	if err := b.svc.Cancel(0); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	poll(t, "job 0 cancelled", func() bool { return b.phase(0) == "cancelled" })
	if completed, cancelled := b.counts(); cancelled != 1 || completed != 0 {
		t.Errorf("snapshot counts = %d cancelled %d completed, want 1/0", cancelled, completed)
	}
	if _, err := b.stop(); err != nil {
		t.Fatalf("stop after cancel: %v", err)
	}
	if st := b.svc.Stats(); st.Cancelled != 1 {
		t.Errorf("stats.Cancelled = %d, want 1", st.Cancelled)
	}
}

func TestServiceSubmitKeyedDedupInMemory(t *testing.T) { caseIdempotencyLedger(t, engineHarness) }
func TestFedServiceIdempotencyLedger(t *testing.T)     { caseIdempotencyLedger(t, fedHarness) }

func caseIdempotencyLedger(t *testing.T, mk newHarness) {
	b := mk(t, Options{})
	b.svc.Start()
	defer b.stop()
	id1, deduped, err := b.svc.SubmitKeyed("job-a", simpleJob(1, 1, 1e6))
	if err != nil || deduped {
		t.Fatalf("first keyed submit = (%d, %v, %v)", id1, deduped, err)
	}
	id2, deduped, err := b.svc.SubmitKeyed("job-a", simpleJob(2, 1, 1e6))
	if err != nil || !deduped || id2 != id1 {
		t.Fatalf("second keyed submit = (%d, %v, %v), want (%d, true, nil)", id2, deduped, err, id1)
	}
	if got := b.svc.Stats().Deduped; got != 1 {
		t.Errorf("deduped counter %d, want 1", got)
	}
	// The duplicate's job was never admitted.
	if phase := b.phase(2); phase != "" {
		t.Errorf("deduped submission still admitted job 2 (phase %q)", phase)
	}
}

func TestServiceBackpressure(t *testing.T)    { caseBackpressure(t, engineHarness) }
func TestFedServiceBackpressure(t *testing.T) { caseBackpressure(t, fedHarness) }

// caseBackpressure fills the admission queue of an unstarted service
// (requests park in the channel awaiting the loop) and checks the
// overflow call bounces with a retry hint instead of blocking.
func caseBackpressure(t *testing.T, mk newHarness) {
	b := mk(t, Options{QueueDepth: 2, RetryAfter: 7 * time.Millisecond})
	replies := make(chan error, 2)
	go func() { replies <- b.svc.Submit(simpleJob(0, 1, 100)) }()
	go func() { replies <- b.svc.Submit(simpleJob(1, 1, 100)) }()
	poll(t, "a full queue", func() bool { return b.queued() == 2 })

	err := b.svc.Submit(simpleJob(2, 1, 100))
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("overflow submit returned %v, want *BusyError", err)
	}
	if busy.RetryAfter != 7*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 7ms", busy.RetryAfter)
	}
	if st := b.svc.Stats(); st.RejectedBusy != 1 {
		t.Errorf("RejectedBusy = %d, want 1", st.RejectedBusy)
	}

	// Starting the loop drains the parked requests successfully.
	b.svc.Start()
	for i := 0; i < 2; i++ {
		if err := <-replies; err != nil {
			t.Errorf("parked submit %d failed: %v", i, err)
		}
	}
	if _, err := b.stop(); err != nil {
		t.Fatal(err)
	}
}

func TestServiceWallClock(t *testing.T)    { caseWallClock(t, engineHarness) }
func TestFedServiceWallClock(t *testing.T) { caseWallClock(t, fedHarness) }

func caseWallClock(t *testing.T, mk newHarness) {
	b := mk(t, Options{Clock: WallClock, RoundInterval: time.Millisecond})
	b.svc.Start()
	for i := 0; i < 4; i++ {
		if err := b.svc.Submit(simpleJob(i, 1, 2000)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	b.waitCompleted(t, 4)
	jobs, err := b.stop()
	if err != nil {
		t.Fatal(err)
	}
	if jobs != 4 {
		t.Errorf("report has %d jobs, want 4", jobs)
	}
}

func TestServiceProvider(t *testing.T)    { caseProvider(t, engineHarness) }
func TestFedServiceProvider(t *testing.T) { caseProvider(t, fedHarness) }

// caseProvider checks the web dashboard Provider view of a live
// service: one entry per scheduler (engine) or member (federation),
// each resolving to a snapshot-backed report.
func caseProvider(t *testing.T, mk newHarness) {
	b := mk(t, Options{})
	b.svc.Start()
	defer b.stop()
	if err := b.svc.Submit(simpleJob(0, 1, 1000)); err != nil {
		t.Fatal(err)
	}
	b.waitCompleted(t, 1)
	order := b.svc.Order()
	if !slices.Equal(order, b.order) {
		t.Fatalf("Order() = %v, want %v", order, b.order)
	}
	jobs := 0
	for _, name := range order {
		rep, ok := b.svc.Report(name)
		if !ok || rep == nil {
			t.Fatalf("Report(%q) = (%v, %v)", name, rep, ok)
		}
		jobs += len(rep.Jobs)
	}
	if jobs != 1 {
		t.Errorf("reports hold %d jobs, want the 1 completed", jobs)
	}
	if _, ok := b.svc.Report("nonexistent"); ok {
		t.Error("Report accepted an unknown name")
	}
}

func TestServiceKill(t *testing.T)    { caseKill(t, engineHarness) }
func TestFedServiceKill(t *testing.T) { caseKill(t, fedHarness) }

// caseKill: a simulated crash ends the loop with ErrKilled and no
// final report, whichever backend it drives.
func caseKill(t *testing.T, mk newHarness) {
	b := mk(t, Options{})
	b.svc.Start()
	if err := b.svc.Submit(simpleJob(0, 1, 1e12)); err != nil {
		t.Fatal(err)
	}
	b.svc.Kill()
	if jobs, err := b.stop(); !errors.Is(err, ErrKilled) || jobs != 0 {
		t.Errorf("stop after kill = (%d jobs, %v), want (0, ErrKilled)", jobs, err)
	}
	if err := b.svc.Submit(simpleJob(1, 1, 100)); !errors.Is(err, ErrStopped) {
		t.Errorf("submit after kill = %v, want ErrStopped", err)
	}
}

func TestServiceConcurrentClients(t *testing.T)    { caseConcurrentClients(t, engineHarness) }
func TestFedServiceConcurrentClients(t *testing.T) { caseConcurrentClients(t, fedHarness) }

// caseConcurrentClients is the shared-clock/snapshot race test:
// submitters, cancellers, and snapshot readers hammer the service from
// many goroutines while the event loop advances the backend. Run under
// -race (make race-short / make race) it proves the copy-on-publish
// snapshot path and the single-owner loop share no unsynchronized
// state.
func caseConcurrentClients(t *testing.T, mk newHarness) {
	b := mk(t, Options{QueueDepth: 256})
	b.svc.Start()
	const (
		writers    = 4
		perWriter  = 10
		readers    = 3
		cancellers = 2
		total      = writers * perWriter
	)
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
					_, _, err = b.svc.SubmitKeyed(fmt.Sprintf("w%d-%d", w, i), simpleJob(id, 1, 2000))
				} else {
					err = b.svc.Submit(simpleJob(id, 1, 2000))
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
				_ = b.svc.Cancel(i % total)
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
					if phase := b.phase(id); phase != "" {
						known[id] = true
					} else if known[id] {
						t.Errorf("job %d vanished from the published snapshot", id)
						return
					}
				}
				if completed, cancelled := b.counts(); completed+cancelled > total {
					t.Errorf("impossible snapshot: %d completed + %d cancelled of %d", completed, cancelled, total)
					return
				}
				_ = b.svc.Stats()
			}
		}()
	}
	poll(t, "all terminal", func() bool {
		completed, cancelled := b.counts()
		return completed+cancelled >= total
	})
	close(stop)
	wg.Wait()
	if _, err := b.stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

// TestNewFedRefusesWAL: the journal covers a single engine, and a
// federated service must say so rather than run without durability.
func TestNewFedRefusesWAL(t *testing.T) {
	_, err := NewFed(newTestFederation(t, 2), Options{WAL: &WALConfig{Dir: t.TempDir()}})
	if err == nil {
		t.Fatal("NewFed accepted Options.WAL")
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
