package loadgen

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// stubTarget scripts Submit outcomes for driver tests.
type stubTarget struct {
	errs []error
	got  []int
}

func (s *stubTarget) Submit(j *job.Job) error {
	if len(s.errs) > 0 {
		err := s.errs[0]
		s.errs = s.errs[1:]
		if err != nil {
			return err
		}
	}
	s.got = append(s.got, j.ID)
	return nil
}

func TestDriveRetriesBusyThenSubmits(t *testing.T) {
	busy := &service.BusyError{RetryAfter: time.Microsecond}
	target := &stubTarget{errs: []error{busy, busy, nil}}
	jobs, err := trace.Generate(trace.Config{NumJobs: 2, Seed: 1, Pattern: trace.Poisson, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drive(target, jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted != 2 || res.BusyRetries != 2 {
		t.Errorf("result = %+v, want 2 submitted with 2 retries", res)
	}
	if len(target.got) != 2 {
		t.Errorf("target saw %d submissions, want 2", len(target.got))
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
}

func TestDriveAbortsOnHardError(t *testing.T) {
	boom := errors.New("validation failed")
	target := &stubTarget{errs: []error{nil, boom}}
	jobs, err := trace.Generate(trace.Config{NumJobs: 3, Seed: 1, Pattern: trace.Poisson, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drive(target, jobs, 0)
	if !errors.Is(err, boom) {
		t.Fatalf("Drive error = %v, want wrapped %v", err, boom)
	}
	if res.Submitted != 1 {
		t.Errorf("submitted %d before abort, want 1", res.Submitted)
	}
}

func TestDriveGivesUpOnStuckService(t *testing.T) {
	busy := &service.BusyError{RetryAfter: time.Microsecond}
	errs := make([]error, maxRetries+1)
	for i := range errs {
		errs[i] = busy
	}
	target := &stubTarget{errs: errs}
	jobs, err := trace.Generate(trace.Config{NumJobs: 1, Seed: 1, Pattern: trace.Poisson, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drive(target, jobs, 0); err == nil {
		t.Fatal("driver did not give up on a permanently busy target")
	}
}

// smallGangs is the workload both live drives submit: 48 jobs released
// at once, with gangs of at most 4 GPUs so the admission queue
// saturates before the gang constraint does.
var smallGangs = trace.Config{
	NumJobs: 48, Seed: 3,
	WorkerChoices: []int{1, 2, 4}, WorkerWeights: []float64{0.5, 0.3, 0.2},
}

// waitCompleted polls the published snapshot until n jobs have
// completed; only the 30 s deadline can fail the test.
func waitCompleted(t *testing.T, svc *service.Service, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for svc.Snapshot().Completed < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d jobs completed in time", svc.Snapshot().Completed, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDriveAgainstLiveService is the in-repo version of the CI smoke:
// a closed-loop drive against a real service with the invariant oracle
// checking every round, sized to stay fast under -race.
func TestDriveAgainstLiveService(t *testing.T) {
	simOpts := sim.ValidatedOptions()
	svc, err := service.New(experiments.SimCluster(), policy.New(policy.SRTF), service.Options{
		Sim:        simOpts,
		QueueDepth: 8,
		RetryAfter: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	jobs, err := trace.Generate(smallGangs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drive(svc, jobs, 30*time.Second)
	if err != nil {
		t.Fatalf("drive: %v", err)
	}
	if res.Submitted != len(jobs) {
		t.Fatalf("submitted %d of %d jobs", res.Submitted, len(jobs))
	}

	waitCompleted(t, svc, res.Submitted)
	report, err := svc.Stop()
	if err != nil {
		t.Fatalf("oracle or engine failure: %v", err)
	}
	if len(report.Merged.Jobs) != res.Submitted {
		t.Errorf("final report has %d jobs, want %d", len(report.Merged.Jobs), res.Submitted)
	}
	if rate := res.PerSecond(); rate <= 0 {
		t.Errorf("sustained rate = %v, want > 0", rate)
	}
}

// TestDriveAgainstFederatedService drives the same closed loop against
// the federated front door: the driver needs no changes (it is the same
// service.Service), the router spreads the burst
// across members, and every accepted job completes on its owning
// member with per-member completions summing to the total.
func TestDriveAgainstFederatedService(t *testing.T) {
	members := make([]federation.MemberConfig, 2)
	for i := range members {
		members[i] = federation.MemberConfig{
			Name:      fmt.Sprintf("region%d", i),
			Cluster:   experiments.SimCluster(),
			Scheduler: policy.New(policy.SRTF),
			Sim:       sim.ValidatedOptions(),
		}
	}
	router, err := federation.NewRouter("least-queue")
	if err != nil {
		t.Fatal(err)
	}
	fed, err := federation.New(members, router)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.NewFed(fed, service.Options{QueueDepth: 8, RetryAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	jobs, err := trace.Generate(smallGangs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drive(svc, jobs, 30*time.Second)
	if err != nil {
		t.Fatalf("drive: %v", err)
	}
	if res.Submitted != len(jobs) {
		t.Fatalf("submitted %d of %d jobs", res.Submitted, len(jobs))
	}

	waitCompleted(t, svc, res.Submitted)
	report, err := svc.Stop()
	if err != nil {
		t.Fatalf("oracle or federation failure: %v", err)
	}
	if len(report.Merged.Jobs) != res.Submitted {
		t.Errorf("merged report has %d jobs, want %d", len(report.Merged.Jobs), res.Submitted)
	}
	snap := svc.Snapshot()
	perMember := 0
	for i := range snap.Members {
		perMember += snap.Members[i].Snap.Completed
	}
	if perMember != snap.Completed {
		t.Errorf("member completions sum to %d, federation says %d", perMember, snap.Completed)
	}
}

// TestDriveUnkeyedDeadErrorAborts: without a key the ambiguous timeout
// must abort rather than risk double-admission.
func TestDriveUnkeyedDeadErrorAborts(t *testing.T) {
	dead := &service.DeadError{Waited: time.Millisecond}
	target := &stubTarget{errs: []error{dead}}
	jobs, err := trace.Generate(trace.Config{NumJobs: 1, Seed: 1, Pattern: trace.Poisson, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drive(target, jobs, 0); err == nil {
		t.Fatal("unkeyed drive swallowed a verdict timeout")
	}
}
