package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
)

// buildMidRunEngine submits a staggered workload and steps the engine
// into the middle of it: some jobs finished, some active, some still
// queued, one cancel pending.
func buildMidRunEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(twoNodeCluster(), fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*job.Job{
		simpleJob(0, 2, 800, 0),     // finishes early
		simpleJob(1, 4, 200000, 0),  // long-running
		simpleJob(2, 1, 50000, 100), // long-running
		simpleJob(3, 2, 4000, 2000), // still queued at checkpoint time
		simpleJob(4, 1, 3000, 2500), // still queued at checkpoint time
	}
	for _, j := range jobs {
		if err := e.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
	}
	for e.Round() < 4 {
		if !e.HasPendingEvents() {
			t.Fatal("engine drained before reaching round 4")
		}
		if err := e.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CancelJob(2); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPersistRoundTrip checkpoints an engine mid-run, restores it with
// a fresh scheduler instance, applies an identical tail of operations
// to both, and requires byte-identical outcomes: same chained digest,
// same per-job results, same clock.
func TestPersistRoundTrip(t *testing.T) {
	orig := buildMidRunEngine(t)
	data, err := orig.MarshalState()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := RestoreEngine(twoNodeCluster(), fifo{}, ValidatedOptions(), data)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Now() != orig.Now() {
		t.Fatalf("restored clock %v, want %v", restored.Now(), orig.Now())
	}
	if restored.Round() != orig.Round() {
		t.Fatalf("restored round %d, want %d", restored.Round(), orig.Round())
	}
	if restored.Digest() != orig.Digest() {
		t.Fatalf("restored digest %#x, want %#x", restored.Digest(), orig.Digest())
	}

	// Same operation tail on both engines: one late submission, one
	// cancellation, then run to completion.
	for _, e := range []*Engine{orig, restored} {
		if err := e.SubmitJob(simpleJob(7, 2, 2000, 5000)); err != nil {
			t.Fatal(err)
		}
		if err := e.CancelJob(3); err != nil {
			t.Fatal(err)
		}
	}
	wantReport := driveEngine(t, orig)
	gotReport := driveEngine(t, restored)

	if orig.Digest() != restored.Digest() {
		t.Errorf("final digest diverged: original %#x, restored %#x", orig.Digest(), restored.Digest())
	}
	if len(gotReport.Jobs) != len(wantReport.Jobs) {
		t.Fatalf("restored run completed %d jobs, original %d", len(gotReport.Jobs), len(wantReport.Jobs))
	}
	for i := range wantReport.Jobs {
		if gotReport.Jobs[i] != wantReport.Jobs[i] {
			t.Errorf("job %d result differs:\nrestored: %+v\noriginal: %+v", i, gotReport.Jobs[i], wantReport.Jobs[i])
		}
	}
	if gotReport.Makespan != wantReport.Makespan {
		t.Errorf("Makespan = %v, want %v", gotReport.Makespan, wantReport.Makespan)
	}
	if gotReport.Rounds != wantReport.Rounds {
		t.Errorf("Rounds = %d, want %d", gotReport.Rounds, wantReport.Rounds)
	}
	if got, want := restored.Snapshot().Cancelled, orig.Snapshot().Cancelled; got != want {
		t.Errorf("Cancelled = %d, want %d", got, want)
	}
}

// TestPersistFreshEngine round-trips an engine that has not executed a
// single round: everything still queued.
func TestPersistFreshEngine(t *testing.T) {
	orig, err := NewEngine(twoNodeCluster(), fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := orig.SubmitJob(simpleJob(i, 1, 500, float64(i)*50)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := orig.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEngine(twoNodeCluster(), fifo{}, ValidatedOptions(), data)
	if err != nil {
		t.Fatal(err)
	}
	want := driveEngine(t, orig)
	got := driveEngine(t, restored)
	if orig.Digest() != restored.Digest() {
		t.Errorf("digest diverged: %#x vs %#x", orig.Digest(), restored.Digest())
	}
	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("restored completed %d jobs, original %d", len(got.Jobs), len(want.Jobs))
	}
	for i := range want.Jobs {
		if got.Jobs[i] != want.Jobs[i] {
			t.Errorf("job %d result differs", i)
		}
	}
}

// TestRestoreRejections exercises every validation gate in
// RestoreEngine: a checkpoint must only resume under the exact
// conditions it was taken.
func TestRestoreRejections(t *testing.T) {
	e := buildMidRunEngine(t)
	data, err := e.MarshalState()
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(t *testing.T, fn func(m map[string]interface{})) []byte {
		t.Helper()
		var m map[string]interface{}
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		fn(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	smallCluster := cluster.New(gpu.Fleet{gpu.V100: 1})
	otherOpts := ValidatedOptions()
	otherOpts.RoundLength *= 2

	cases := []struct {
		name    string
		data    []byte
		cluster *cluster.Cluster
		sched   interface {
			Name() string
		}
		opts    Options
		wantSub string
	}{
		{"corrupt json", []byte(`{"version": 1, "sched`), nil, nil, Options{}, "restore"},
		{"wrong version", mutate(t, func(m map[string]interface{}) { m["version"] = 99 }), nil, nil, Options{}, "version"},
		{"wrong scheduler", data, nil, churn{}, Options{}, "scheduler"},
		{"changed options", data, nil, nil, otherOpts, "options changed"},
		{"phase misalignment", mutate(t, func(m map[string]interface{}) { m["phases"] = []interface{}{} }), nil, nil, Options{}, "phases"},
		{"cluster mismatch", data, smallCluster, nil, Options{}, "GPUs"},
		{"prev_down past the cluster", mutate(t, func(m map[string]interface{}) { m["prev_down"] = []interface{}{1, 2} }), nil, nil, Options{}, "prev_down"},
		{"negative prev_down", mutate(t, func(m map[string]interface{}) { m["prev_down"] = []interface{}{-1} }), nil, nil, Options{}, "prev_down"},
		{"finished job with no result", mutate(t, func(m map[string]interface{}) {
			m["report"].(map[string]interface{})["Jobs"] = []interface{}{}
		}), nil, nil, Options{}, "no result"},
		{"result for an unfinished job", mutate(t, func(m map[string]interface{}) {
			m["phases"].([]interface{})[0] = float64(JobActive)
		}), nil, nil, Options{}, "not (or not only once) finished"},
		{"unknown phase", mutate(t, func(m map[string]interface{}) {
			m["phases"].([]interface{})[4] = float64(9)
		}), nil, nil, Options{}, "unknown phase"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := tc.cluster
			if c == nil {
				c = twoNodeCluster()
			}
			opts := tc.opts
			if opts.RoundLength == 0 {
				opts = ValidatedOptions()
			}
			s := fifo{}
			if tc.sched != nil {
				_, err = RestoreEngine(c, churn{}, opts, tc.data)
			} else {
				_, err = RestoreEngine(c, s, opts, tc.data)
			}
			if err == nil {
				t.Fatal("RestoreEngine accepted an invalid checkpoint")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestRestoreMidOutage checkpoints an engine while a node is down and
// requires the restored engine to carry the outage mark: its digest
// after every further round equals the uninterrupted run's, through the
// node coming back and a second outage.
func TestRestoreMidOutage(t *testing.T) {
	opts := ValidatedOptions()
	opts.Failures = []Failure{
		{Node: 0, Start: 400, End: 3000},
		{Node: 1, Start: 5000, End: 6000},
	}
	mk := func() *Engine {
		e, err := NewEngine(twoNodeCluster(), fifo{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := e.SubmitJob(simpleJob(i, 1+i%3, 30000, float64(i)*300)); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	step := func(e *Engine) bool {
		if !e.HasPendingEvents() {
			return false
		}
		if err := e.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
		return true
	}
	orig, uninterrupted := mk(), mk()
	for orig.Round() < 4 {
		step(orig)
		step(uninterrupted)
	}
	data, err := orig.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"prev_down":[0]`) {
		t.Fatalf("checkpoint at t=%v is not mid-outage: %s", orig.Now(), data)
	}
	restored, err := RestoreEngine(twoNodeCluster(), fifo{}, opts, data)
	if err != nil {
		t.Fatal(err)
	}
	for step(uninterrupted) {
		if !step(restored) {
			t.Fatalf("restored engine drained at round %d, uninterrupted still running", restored.Round())
		}
		if restored.Digest() != uninterrupted.Digest() {
			t.Fatalf("round %d: restored digest %#x, uninterrupted %#x",
				uninterrupted.Round(), restored.Digest(), uninterrupted.Digest())
		}
	}
	want, got := driveEngine(t, uninterrupted), driveEngine(t, restored)
	if got.Faults != want.Faults || got.Makespan != want.Makespan {
		t.Errorf("restored run: faults %+v makespan %v, uninterrupted %+v / %v",
			got.Faults, got.Makespan, want.Faults, want.Makespan)
	}
}

// TestRestoreDuplicateJobID guards the integrity check on the job list.
func TestRestoreDuplicateJobID(t *testing.T) {
	e, err := NewEngine(twoNodeCluster(), fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitJob(simpleJob(5, 1, 100, 0)); err != nil {
		t.Fatal(err)
	}
	data, err := e.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	jobs := m["jobs"].([]interface{})
	m["jobs"] = append(jobs, jobs[0])
	m["phases"] = append(m["phases"].([]interface{}), m["phases"].([]interface{})[0])
	bad, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreEngine(twoNodeCluster(), fifo{}, ValidatedOptions(), bad); err == nil {
		t.Fatal("RestoreEngine accepted a duplicate job ID")
	}
}
