package loadgen

import (
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/service"
	"repro/internal/sim"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Model: Poisson, Jobs: 50, Seed: 7, Rate: 0.01}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 50 {
		t.Fatalf("generated %d jobs, want 50", len(a))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Arrival != b[i].Arrival ||
			a[i].Workers != b[i].Workers || a[i].Epochs != b[i].Epochs {
			t.Fatalf("job %d differs between identical configs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	c, err := Generate(Config{Model: Poisson, Jobs: 50, Seed: 8, Rate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i].Arrival == c[i].Arrival {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical arrival sequences")
	}
}

func TestGenerateArrivalShapes(t *testing.T) {
	poisson, err := Generate(Config{Model: Poisson, Jobs: 200, Seed: 1, Rate: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(poisson); i++ {
		if poisson[i].Arrival < poisson[i-1].Arrival {
			t.Fatalf("poisson arrivals not nondecreasing at %d", i)
		}
	}

	bursty, err := Generate(Config{Model: Bursty, Jobs: 64, Seed: 1, BurstSize: 16, BurstGap: 3600})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range bursty {
		want := float64(i/16) * 3600
		if j.Arrival != want {
			t.Fatalf("bursty job %d arrives at %v, want %v", i, j.Arrival, want)
		}
	}

	diurnal, err := Generate(Config{Model: Diurnal, Jobs: 100, Seed: 1, Rate: 0.02, Amplitude: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(diurnal); i++ {
		if diurnal[i].Arrival < diurnal[i-1].Arrival {
			t.Fatalf("diurnal arrivals not nondecreasing at %d", i)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	cases := []Config{
		{Model: Poisson, Jobs: 0, Rate: 1},
		{Model: Poisson, Jobs: 5},
		{Model: Diurnal, Jobs: 5, Rate: 1, Amplitude: 1},
		{Model: Bursty, Jobs: 5},
		{Model: Poisson, Jobs: 5, Rate: 1, MinGPUHours: 4, MaxGPUHours: 2},
		{Model: Poisson, Jobs: 5, Rate: 1, WorkerChoices: []int{1, 2}, WorkerWeights: []float64{1}},
		{Model: Poisson, Jobs: 5, Rate: 1, WorkerChoices: []int{0}, WorkerWeights: []float64{1}},
	}
	for i, cfg := range cases {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
}

func TestGenerateFirstID(t *testing.T) {
	jobs, err := Generate(Config{Model: Poisson, Jobs: 3, Seed: 1, Rate: 1, FirstID: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if j.ID != 100+i {
			t.Errorf("job %d has ID %d, want %d", i, j.ID, 100+i)
		}
	}
}

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
	jobs, err := Generate(Config{Model: Poisson, Jobs: 2, Seed: 1, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drive(target, jobs, DriveOptions{})
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
	jobs, err := Generate(Config{Model: Poisson, Jobs: 3, Seed: 1, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drive(target, jobs, DriveOptions{})
	if !errors.Is(err, boom) {
		t.Fatalf("Drive error = %v, want wrapped %v", err, boom)
	}
	if res.Submitted != 1 {
		t.Errorf("submitted %d before abort, want 1", res.Submitted)
	}
}

func TestDriveGivesUpOnStuckService(t *testing.T) {
	busy := &service.BusyError{RetryAfter: time.Microsecond}
	target := &stubTarget{errs: []error{busy, busy, busy, busy}}
	jobs, err := Generate(Config{Model: Poisson, Jobs: 1, Seed: 1, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drive(target, jobs, DriveOptions{MaxRetries: 3}); err == nil {
		t.Fatal("driver did not give up on a permanently busy target")
	}
}

// TestDriveAgainstLiveService is the in-repo version of the CI smoke:
// a closed-loop drive against a real service with the invariant oracle
// checking every round, sized to stay fast under -race.
func TestDriveAgainstLiveService(t *testing.T) {
	simOpts := sim.ValidatedOptions()
	svc, err := service.New(experiments.SimCluster(), policy.New(policy.SRTF, true), service.Options{
		Sim:        simOpts,
		QueueDepth: 8,
		RetryAfter: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	jobs, err := Generate(Config{
		Model: Bursty, Jobs: 48, Seed: 3, BurstSize: 24, BurstGap: 7200,
		MinGPUHours: 0.2, MaxGPUHours: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drive(svc, jobs, DriveOptions{MaxDuration: 30 * time.Second})
	if err != nil {
		t.Fatalf("drive: %v", err)
	}
	if res.Submitted != len(jobs) {
		t.Fatalf("submitted %d of %d jobs", res.Submitted, len(jobs))
	}

	deadline := time.Now().Add(30 * time.Second)
	for svc.Snapshot().Completed < res.Submitted {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d jobs completed in time", svc.Snapshot().Completed, res.Submitted)
		}
		time.Sleep(time.Millisecond)
	}
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
			Scheduler: policy.New(policy.SRTF, true),
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
	svc, err := service.NewFed(fed, service.Options{QueueDepth: 8, RetryAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	jobs, err := Generate(Config{
		Model: Bursty, Jobs: 48, Seed: 3, BurstSize: 24, BurstGap: 7200,
		MinGPUHours: 0.2, MaxGPUHours: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drive(svc, jobs, DriveOptions{MaxDuration: 30 * time.Second})
	if err != nil {
		t.Fatalf("drive: %v", err)
	}
	if res.Submitted != len(jobs) {
		t.Fatalf("submitted %d of %d jobs", res.Submitted, len(jobs))
	}

	deadline := time.Now().Add(30 * time.Second)
	for svc.Snapshot().Completed < res.Submitted {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d jobs completed in time", svc.Snapshot().Completed, res.Submitted)
		}
		time.Sleep(time.Millisecond)
	}
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

// keyedStub scripts SubmitKeyed outcomes and records the keys it saw,
// replying deduped for any key it has already accepted.
type keyedStub struct {
	stubTarget
	accepted map[string]int
	keys     []string
}

func (s *keyedStub) SubmitKeyed(key string, j *job.Job) (int, bool, error) {
	s.keys = append(s.keys, key)
	if len(s.errs) > 0 {
		err := s.errs[0]
		s.errs = s.errs[1:]
		if err != nil {
			return 0, false, err
		}
	}
	if s.accepted == nil {
		s.accepted = make(map[string]int)
	}
	if id, ok := s.accepted[key]; ok {
		return id, true, nil
	}
	s.accepted[key] = j.ID
	s.got = append(s.got, j.ID)
	return j.ID, false, nil
}

// TestDriveKeyedRetriesDeadError: with an idempotency key a verdict
// timeout is retried instead of aborting the drive, and a retry whose
// first attempt landed counts as deduped rather than submitted.
func TestDriveKeyedRetriesDeadError(t *testing.T) {
	dead := &service.DeadError{Waited: time.Millisecond}
	target := &keyedStub{stubTarget: stubTarget{errs: []error{dead, nil, nil}}}
	jobs, err := Generate(Config{Model: Poisson, Jobs: 2, Seed: 1, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drive(target, jobs, DriveOptions{
		KeyFunc: func(j *job.Job) string { return "job-" + itoa(j.ID) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted != 2 || res.DeadRetries != 1 {
		t.Errorf("result = %+v, want 2 submitted with 1 dead retry", res)
	}
	if len(target.keys) != 3 {
		t.Errorf("target saw keys %v, want 3 attempts", target.keys)
	}
	if target.keys[0] != target.keys[1] {
		t.Errorf("retry changed the key: %q then %q", target.keys[0], target.keys[1])
	}
}

// TestDriveKeyedCountsDeduped: a key the service already accepted (the
// ack was lost, the work was not) lands in Deduped, not Submitted.
func TestDriveKeyedCountsDeduped(t *testing.T) {
	target := &keyedStub{accepted: map[string]int{"job-0": 100}}
	jobs, err := Generate(Config{Model: Poisson, Jobs: 2, Seed: 1, Rate: 1, FirstID: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drive(target, jobs, DriveOptions{
		KeyFunc: func(j *job.Job) string { return "job-" + itoa(j.ID) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted != 1 || res.Deduped != 1 {
		t.Errorf("result = %+v, want 1 submitted + 1 deduped", res)
	}
}

// TestDriveUnkeyedDeadErrorAborts: without a key the ambiguous timeout
// must abort rather than risk double-admission.
func TestDriveUnkeyedDeadErrorAborts(t *testing.T) {
	dead := &service.DeadError{Waited: time.Millisecond}
	target := &stubTarget{errs: []error{dead}}
	jobs, err := Generate(Config{Model: Poisson, Jobs: 1, Seed: 1, Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drive(target, jobs, DriveOptions{}); err == nil {
		t.Fatal("unkeyed drive swallowed a verdict timeout")
	}
}

func itoa(n int) string { return strconv.Itoa(n) }
