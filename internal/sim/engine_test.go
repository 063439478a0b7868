package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// driveEngine steps the engine to completion and finalizes the report.
func driveEngine(t *testing.T, e *Engine) *metrics.Report {
	t.Helper()
	for e.HasPendingEvents() {
		if err := e.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
	}
	r, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEngineMatchesRun(t *testing.T) {
	jobs := []*job.Job{
		simpleJob(0, 2, 20000, 0),
		simpleJob(1, 4, 5000, 100),
		simpleJob(2, 1, 800, 1200),
	}
	want, err := Run(twoNodeCluster(), jobs, fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}

	e, err := NewEngine(twoNodeCluster(), fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := e.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
	}
	got := driveEngine(t, e)

	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("engine completed %d jobs, Run %d", len(got.Jobs), len(want.Jobs))
	}
	for i := range got.Jobs {
		if got.Jobs[i] != want.Jobs[i] {
			t.Errorf("job %d result differs:\nengine: %+v\nrun:    %+v", i, got.Jobs[i], want.Jobs[i])
		}
	}
	if got.Makespan != want.Makespan || got.Rounds != want.Rounds ||
		got.BusyGPUSeconds != want.BusyGPUSeconds || got.HeldGPUSeconds != want.HeldGPUSeconds {
		t.Errorf("aggregates differ: engine {mk %v rounds %d busy %v held %v}, run {mk %v rounds %d busy %v held %v}",
			got.Makespan, got.Rounds, got.BusyGPUSeconds, got.HeldGPUSeconds,
			want.Makespan, want.Rounds, want.BusyGPUSeconds, want.HeldGPUSeconds)
	}
}

// TestEngineOnlineSubmission submits a second job only after the first
// has started running — the online-arrival path batch Run can't take.
func TestEngineOnlineSubmission(t *testing.T) {
	e, err := NewEngine(twoNodeCluster(), fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitJob(simpleJob(0, 2, 20000, 0)); err != nil {
		t.Fatal(err)
	}
	// One round: job 0 is running, engine idles at the next boundary.
	if err := e.ProcessNextEvent(); err != nil {
		t.Fatal(err)
	}
	if got := e.Now(); got != 360 {
		t.Fatalf("after one round Now = %v, want 360", got)
	}
	// Late submission with Arrival in the past clamps to now.
	late := simpleJob(1, 1, 100, 0)
	if err := e.SubmitJob(late); err != nil {
		t.Fatal(err)
	}
	if p, ok := e.Phase(1); !ok || p != JobPending {
		t.Fatalf("phase of late job = %v, %v; want pending", p, ok)
	}
	r := driveEngine(t, e)
	if len(r.Jobs) != 2 {
		t.Fatalf("completed %d jobs, want 2", len(r.Jobs))
	}
	// The late job was admitted at the boundary after its submission
	// time (t=360), so it cannot have started before that.
	for _, jr := range r.Jobs {
		if jr.ID == 1 && jr.Start < 360 {
			t.Errorf("late job started at %v, before its submission time 360", jr.Start)
		}
	}
	if p, ok := e.Phase(1); !ok || p != JobFinished {
		t.Errorf("phase of late job = %v, %v; want finished", p, ok)
	}
}

func TestEngineCancelPendingAndActive(t *testing.T) {
	var buf bytes.Buffer
	opts := ValidatedOptions()
	opts.EventLog = &buf
	e, err := NewEngine(twoNodeCluster(), fifo{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	running := simpleJob(0, 2, 20000, 0)
	pending := simpleJob(1, 1, 1000, 10*3600) // arrives hours later
	if err := e.SubmitJob(running); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitJob(pending); err != nil {
		t.Fatal(err)
	}
	if err := e.ProcessNextEvent(); err != nil { // job 0 starts
		t.Fatal(err)
	}
	// Cancel the running job and the not-yet-arrived job.
	if err := e.CancelJob(0); err != nil {
		t.Fatal(err)
	}
	if err := e.CancelJob(1); err != nil {
		t.Fatal(err)
	}
	// Double cancel is rejected while the first is still queued.
	if err := e.CancelJob(0); err == nil || !strings.Contains(err.Error(), "already cancelled") {
		t.Fatalf("double cancel error = %v", err)
	}
	r := driveEngine(t, e)
	if len(r.Jobs) != 0 {
		t.Fatalf("%d jobs completed, want 0 (both cancelled)", len(r.Jobs))
	}
	for id := 0; id <= 1; id++ {
		if p, _ := e.Phase(id); p != JobCancelled {
			t.Errorf("phase of job %d = %v, want cancelled", id, p)
		}
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cancels := 0
	for _, ev := range events {
		if ev.Type == EventCancel {
			cancels++
		}
	}
	if cancels != 2 {
		t.Errorf("%d cancel events, want 2", cancels)
	}
	// After both cancellations the engine is idle but not poisoned: an
	// idle engine's ProcessNextEvent does nothing and returns the sticky
	// error, if any.
	if e.HasPendingEvents() {
		t.Error("engine still has pending events after cancelling everything")
	}
	if err := e.ProcessNextEvent(); err != nil {
		t.Errorf("engine error = %v", err)
	}
}

func TestEngineCancelErrors(t *testing.T) {
	e, err := NewEngine(twoNodeCluster(), fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CancelJob(7); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("cancel of unknown job error = %v", err)
	}
	if err := e.SubmitJob(simpleJob(0, 1, 100, 0)); err != nil {
		t.Fatal(err)
	}
	driveEngine(t, e)
	if err := e.CancelJob(0); err == nil || !strings.Contains(err.Error(), "finished job") {
		t.Fatalf("cancel of finished job error = %v", err)
	}
}

func TestEngineSubmitErrors(t *testing.T) {
	e, err := NewEngine(twoNodeCluster(), fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitJob(&job.Job{ID: 0}); err == nil {
		t.Error("invalid job accepted")
	}
	if err := e.SubmitJob(simpleJob(1, 64, 100, 0)); err == nil ||
		!strings.Contains(err.Error(), "can never be placed") {
		t.Errorf("unplaceable job error = %v", err)
	}
	if err := e.SubmitJob(simpleJob(2, 1, 100, 0)); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitJob(simpleJob(2, 1, 100, 0)); err == nil ||
		!strings.Contains(err.Error(), "duplicate job ID") {
		t.Errorf("duplicate submission error = %v", err)
	}
}

func TestEnginePeekNextEventTime(t *testing.T) {
	e, err := NewEngine(twoNodeCluster(), fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.PeekNextEventTime(); ok {
		t.Error("empty engine reports a next event")
	}
	if e.HasPendingEvents() {
		t.Error("empty engine has pending events")
	}
	// A job arriving at t=500 is admitted at the boundary after it:
	// ceil(500/360)*360 = 720. 20000 iterations at 10 it/s outlast a
	// round, so the job is still active after the first one.
	if err := e.SubmitJob(simpleJob(0, 1, 20000, 500)); err != nil {
		t.Fatal(err)
	}
	if tm, ok := e.PeekNextEventTime(); !ok || tm != 720 {
		t.Fatalf("peek = %v, %v; want 720", tm, ok)
	}
	if err := e.ProcessNextEvent(); err != nil { // fast-forward to 720
		t.Fatal(err)
	}
	if e.Now() != 720 {
		t.Fatalf("Now = %v after fast-forward, want 720", e.Now())
	}
	// Active work processes at the current boundary.
	if err := e.ProcessNextEvent(); err != nil {
		t.Fatal(err)
	}
	if tm, ok := e.PeekNextEventTime(); !ok || tm != e.Now() {
		t.Fatalf("peek with active job = %v, %v; want now=%v", tm, ok, e.Now())
	}
	driveEngine(t, e)
}

func TestEngineStickyError(t *testing.T) {
	opts := ValidatedOptions()
	opts.MaxRounds = 1
	e, err := NewEngine(twoNodeCluster(), fifo{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitJob(simpleJob(0, 2, 1e9, 0)); err != nil {
		t.Fatal(err)
	}
	var stepErr error
	for i := 0; i < 10 && stepErr == nil; i++ {
		stepErr = e.ProcessNextEvent()
	}
	if stepErr == nil || !strings.Contains(stepErr.Error(), "exceeded 1 rounds") {
		t.Fatalf("max-rounds error = %v", stepErr)
	}
	// Every later operation reports the same sticky error.
	if err := e.ProcessNextEvent(); err != stepErr {
		t.Errorf("ProcessNextEvent after failure = %v, want sticky %v", err, stepErr)
	}
	if err := e.SubmitJob(simpleJob(1, 1, 1, 0)); err != stepErr {
		t.Errorf("SubmitJob after failure = %v, want sticky %v", err, stepErr)
	}
	if _, err := e.Finish(); err != stepErr {
		t.Errorf("Finish after failure = %v, want sticky %v", err, stepErr)
	}
	if e.HasPendingEvents() {
		t.Error("poisoned engine claims pending events")
	}
}

// TestEngineCancelFreesCapacity verifies a cancelled running job's
// devices are schedulable again at the next boundary: a second job that
// cannot fit alongside the first starts only after the cancellation.
func TestEngineCancelFreesCapacity(t *testing.T) {
	e, err := NewEngine(twoNodeCluster(), fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The cluster has 8 V100 + 2 K80; the hog takes everything usable.
	hog := simpleJob(0, 10, 1e8, 0)
	blocked := simpleJob(1, 10, 100, 0)
	if err := e.SubmitJob(hog); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitJob(blocked); err != nil {
		t.Fatal(err)
	}
	if err := e.ProcessNextEvent(); err != nil {
		t.Fatal(err)
	}
	if p, _ := e.Phase(1); p != JobActive {
		t.Fatalf("blocked job phase = %v, want active", p)
	}
	if err := e.CancelJob(0); err != nil {
		t.Fatal(err)
	}
	r := driveEngine(t, e)
	if len(r.Jobs) != 1 || r.Jobs[0].ID != 1 {
		t.Fatalf("results = %+v, want only job 1", r.Jobs)
	}
	if r.Jobs[0].Start < 360 {
		t.Errorf("blocked job started at %v while the hog held the cluster", r.Jobs[0].Start)
	}
}

// TestEngineIdleThenResubmit exercises the long-lived service pattern:
// the engine drains completely, then picks up fresh work.
func TestEngineIdleThenResubmit(t *testing.T) {
	e, err := NewEngine(twoNodeCluster(), fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitJob(simpleJob(0, 1, 100, 0)); err != nil {
		t.Fatal(err)
	}
	driveEngine(t, e)
	idleAt := e.Now()
	if e.HasPendingEvents() {
		t.Fatal("drained engine has pending events")
	}
	if err := e.SubmitJob(simpleJob(1, 1, 100, 0)); err != nil {
		t.Fatal(err)
	}
	if !e.HasPendingEvents() {
		t.Fatal("resubmission did not re-arm the engine")
	}
	r := driveEngine(t, e)
	if len(r.Jobs) != 2 {
		t.Fatalf("completed %d jobs, want 2", len(r.Jobs))
	}
	if e.Now() <= idleAt {
		t.Errorf("clock did not advance past idle point: %v <= %v", e.Now(), idleAt)
	}
	if math.IsNaN(r.Makespan) {
		t.Error("NaN makespan")
	}
}

// withExtra is fifo plus fixed extra decision-map entries, which
// override fifo's own for the same job.
type withExtra struct {
	fifo
	extra map[int]cluster.Alloc
}

func (s withExtra) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	out := s.fifo.Schedule(ctx)
	for id, a := range s.extra {
		out[id] = a
	}
	return out
}

// runDigest drives an engine over jobs to completion or to its first
// error and returns its schedule digest with that error.
func runDigest(t *testing.T, s sched.Scheduler, jobs []*job.Job) (uint64, error) {
	t.Helper()
	e, err := NewEngine(twoNodeCluster(), s, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := e.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
	}
	for e.HasPendingEvents() {
		if err := e.ProcessNextEvent(); err != nil {
			return e.Digest(), err
		}
	}
	return e.Digest(), nil
}

// TestEngineRejectsNegativePlacement: a placement with a negative count
// fails the round, whether the counts sum to no workers ({+4, -4}) or to
// the gang ({+6, -4} for a 2-worker job, which would book six devices).
// The checker is off, so only the engine's own validation can refuse
// them.
func TestEngineRejectsNegativePlacement(t *testing.T) {
	for _, tc := range []struct {
		name  string
		alloc cluster.Alloc
	}{
		{"sums to no workers", cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 4}, {Node: 1, Type: gpu.V100, Count: -4}}},
		{"sums to the gang", cluster.Alloc{{Node: 0, Type: gpu.V100, Count: 6}, {Node: 1, Type: gpu.V100, Count: -4}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.New(gpu.Fleet{gpu.V100: 8}, gpu.Fleet{gpu.V100: 8})
			e, err := NewEngine(c, scripted{{0: tc.alloc}}, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if err := e.SubmitJob(simpleJob(0, 2, 5000, 0)); err != nil {
				t.Fatal(err)
			}
			const want = "sched: job 0 allocated -4 devices of V100 on node 1"
			if err := e.ProcessNextEvent(); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("round error = %v, want one containing %q", err, want)
			}
		})
	}
}

// TestEngineRejectsDecisionForInactiveJob covers decision-map keys that
// name no active job: one with workers fails the round, at its place in
// ascending-ID order among the other decisions' errors; one with no
// workers is ignored and leaves the digest as it was.
func TestEngineRejectsDecisionForInactiveJob(t *testing.T) {
	v100 := func(n int) cluster.Alloc { return cluster.Alloc{{Node: 0, Type: gpu.V100, Count: n}} }
	jobs := []*job.Job{simpleJob(5, 2, 5000, 0)}
	want, err := runDigest(t, fifo{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		extra   map[int]cluster.Alloc
		wantErr string // "" when the run must succeed with fifo's digest
	}{
		{"key with workers", map[int]cluster.Alloc{77: v100(1)}, "allocated to unknown or inactive job 77"},
		{"zero-worker key", map[int]cluster.Alloc{77: v100(0)}, ""},
		{"unknown ID before a bad gang", map[int]cluster.Alloc{3: v100(1), 5: v100(3)}, "allocated to unknown or inactive job 3"},
		{"unknown ID after a bad gang", map[int]cluster.Alloc{9: v100(1), 5: v100(3)}, "job 5 allocated 3 workers"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := runDigest(t, withExtra{extra: tc.extra}, jobs)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("digest = %#x, want %#x (the run without the key)", got, want)
			}
		})
	}
}
