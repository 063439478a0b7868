package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/job"
	"repro/internal/sched"
)

func TestNormalizeRejectsBadOptions(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string // substring of the error
	}{
		{"zero round", Options{RoundLength: 0}, "round length"},
		{"negative round", Options{RoundLength: -360}, "round length"},
		{"negative delay", Options{RoundLength: 360, FlatDelay: -1}, "flat delay"},
		{"delay equals round", Options{RoundLength: 360, FlatDelay: 360}, "flat delay"},
		{"delay exceeds round", Options{RoundLength: 360, FlatDelay: 400}, "flat delay"},
		{"empty failure window", Options{RoundLength: 360,
			Failures: []Failure{{Node: 0, Start: 100, End: 100}}}, "failure window"},
		{"inverted failure window", Options{RoundLength: 360,
			Failures: []Failure{{Node: 1, Start: 200, End: 100}}}, "failure window"},
		{"negative failure start", Options{RoundLength: 360,
			Failures: []Failure{{Node: 0, Start: -1, End: 100}}}, "failure window"},
		// An outage on a machine the cluster does not have used to be
		// accepted, counted and logged.
		{"failure one past the last node", Options{RoundLength: 360,
			Failures: []Failure{{Node: 1, Start: 0, End: 100}, {Node: 2, Start: 0, End: 100}}}, "on node 2 of 2"},
		{"failure far past the last node", Options{RoundLength: 360,
			Failures: []Failure{{Node: 99, Start: 0, End: 1000}}}, "on node 99 of 2"},
		{"failure on a negative node", Options{RoundLength: 360,
			Failures: []Failure{{Node: -1, Start: 0, End: 100}}}, "on node -1 of 2"},
		// NaN passes every ordered comparison, and an infinite round
		// ends the run after one round.
		{"NaN round", Options{RoundLength: math.NaN()}, "round length"},
		{"infinite round", Options{RoundLength: math.Inf(1)}, "round length"},
		{"NaN delay", Options{RoundLength: 360, FlatDelay: math.NaN()}, "flat delay"},
		{"infinite delay", Options{RoundLength: 360, FlatDelay: math.Inf(1)}, "flat delay"},
		{"NaN failure start", Options{RoundLength: 360,
			Failures: []Failure{{Node: 0, Start: math.NaN(), End: 3600}}}, "failure window"},
		{"NaN failure end", Options{RoundLength: 360,
			Failures: []Failure{{Node: 0, Start: 0, End: math.NaN()}}}, "failure window"},
		{"infinite failure start", Options{RoundLength: 360,
			Failures: []Failure{{Node: 0, Start: math.Inf(-1), End: 3600}}}, "failure window"},
		{"infinite failure end", Options{RoundLength: 360,
			Failures: []Failure{{Node: 0, Start: 0, End: math.Inf(1)}}}, "failure window"},
	}
	for _, tc := range cases {
		opts := tc.opts
		err := opts.normalize(2)
		if err == nil {
			t.Errorf("%s: normalize accepted %+v", tc.name, tc.opts)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		// NewEngine, and RestoreEngine through it, refuse the same options.
		if _, err := NewEngine(twoNodeCluster(), fifo{}, tc.opts); err == nil {
			t.Errorf("%s: NewEngine accepted %+v", tc.name, tc.opts)
		}
	}
	ok := DefaultOptions()
	ok.Failures = []Failure{{Node: 0, Start: 0, End: 100}, {Node: 1, Start: 50, End: 100}}
	if _, err := NewEngine(twoNodeCluster(), fifo{}, ok); err != nil {
		t.Errorf("NewEngine refused outages on both nodes of a two-node cluster: %v", err)
	}
}

func TestNormalizeAppliesDefaults(t *testing.T) {
	opts := Options{RoundLength: 360}
	if err := opts.normalize(1); err != nil {
		t.Fatal(err)
	}
	if opts.MaxRounds != 2_000_000 {
		t.Errorf("MaxRounds default = %d, want 2000000", opts.MaxRounds)
	}
	if opts.StallLimit != 5000 {
		t.Errorf("StallLimit default = %d, want 5000", opts.StallLimit)
	}

	// Explicit settings survive normalization untouched.
	opts = Options{RoundLength: 100, FlatDelay: 99, MaxRounds: 7, StallLimit: 3}
	if err := opts.normalize(1); err != nil {
		t.Fatal(err)
	}
	if opts.MaxRounds != 7 || opts.StallLimit != 3 || opts.FlatDelay != 99 {
		t.Errorf("normalize clobbered explicit options: %+v", opts)
	}
}

func TestStallFor(t *testing.T) {
	flat := Options{RoundLength: 360, FlatDelay: 10}
	if got := stallFor("ResNet-50", true, flat); got != 10 {
		t.Errorf("flat changed stall = %v, want 10", got)
	}
	if got := stallFor("ResNet-50", false, flat); got != 0 {
		t.Errorf("flat unchanged stall = %v, want 0", got)
	}

	// Model-cost mode delegates to the Table III save/restore profile:
	// save+restore on reallocation, periodic save otherwise — and falls
	// back to the flat restore for models outside the table.
	model := Options{RoundLength: 360, FlatDelay: 10, UseModelCosts: true}
	if got, want := stallFor("ResNet-50", true, model), checkpoint.Delay("ResNet-50", true); got != want {
		t.Errorf("model changed stall = %v, want %v", got, want)
	}
	if got, want := stallFor("ResNet-50", false, model), checkpoint.Delay("ResNet-50", false); got != want {
		t.Errorf("model unchanged stall = %v, want %v", got, want)
	}
	if got := stallFor("no-such-model", true, model); got != checkpoint.DefaultDelay {
		t.Errorf("unknown-model stall = %v, want the flat fallback %v", got, checkpoint.DefaultDelay)
	}
	if got := stallFor("no-such-model", false, model); got != 0 {
		t.Errorf("unknown-model save-only stall = %v, want 0", got)
	}
}

func TestHorizonEdgeCases(t *testing.T) {
	const round = 360.0

	// No active jobs: the horizon is exactly one round ahead.
	if got := horizon(1000, nil, round); got != 1000+round {
		t.Errorf("idle horizon = %v, want %v", got, 1000+round)
	}

	// A fresh job contributes its full worst-case serial runtime; a
	// half-done job contributes half of it.
	j := simpleJob(0, 2, 1000, 0) // worst type K80 at 2 it/s x 2 workers
	full := &sched.JobState{Job: j, Remaining: j.TotalIters()}
	half := &sched.JobState{Job: j, Remaining: j.TotalIters() / 2}
	max := j.MaxDuration()
	if got, want := horizon(0, []*sched.JobState{full}, round), round+max; math.Abs(got-want) > 1e-9 {
		t.Errorf("full-job horizon = %v, want %v", got, want)
	}
	if got, want := horizon(0, []*sched.JobState{half}, round), round+max/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("half-job horizon = %v, want %v", got, want)
	}

	// A job with no usable accelerator type has an infinite worst case;
	// the horizon must skip it rather than go infinite.
	unusable := &job.Job{
		ID: 1, Name: "stuck", Model: "unit-test", Workers: 1,
		Epochs: 10, ItersPerEpoch: 1,
		Throughput: job.Rates{},
	}
	if !math.IsInf(unusable.MaxDuration(), 1) {
		t.Fatal("test premise broken: unusable job has finite MaxDuration")
	}
	states := []*sched.JobState{full, {Job: unusable, Remaining: unusable.TotalIters()}}
	got := horizon(0, states, round)
	if math.IsInf(got, 1) {
		t.Fatal("horizon went infinite on an unplaceable job")
	}
	if want := round + max; math.Abs(got-want) > 1e-9 {
		t.Errorf("horizon with unusable job = %v, want %v (infinite term skipped)", got, want)
	}
}
