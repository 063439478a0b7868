package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/sched"
)

// TestRejectedRoundLeavesFreeState: a round whose joint decision fails
// validation after an earlier decision passed leaves the engine's free
// state exactly as it was before the round: no device booked, no
// savepoint open.
func TestRejectedRoundLeavesFreeState(t *testing.T) {
	v100 := func(node, n int) cluster.Alloc { return cluster.Alloc{{Node: node, Type: gpu.V100, Count: n}} }
	for _, tc := range []struct {
		name    string
		s       sched.Scheduler
		jobs    []*job.Job
		wantErr string
	}{
		{"over-allocation", overbook{}, []*job.Job{simpleJob(0, 3, 1000, 0), simpleJob(1, 3, 1000, 0)}, "over-allocated"},
		{"unknown job", withExtra{extra: map[int]cluster.Alloc{99: v100(1, 1)}}, []*job.Job{simpleJob(5, 2, 1000, 0)}, "unknown or inactive job 99"},
		{"bad gang", withExtra{extra: map[int]cluster.Alloc{9: v100(1, 2)}}, []*job.Job{simpleJob(5, 1, 1000, 0), simpleJob(9, 1, 1000, 0)}, "job 9 allocated 2 workers"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(twoNodeCluster(), tc.s, ValidatedOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range tc.jobs {
				if err := e.SubmitJob(j); err != nil {
					t.Fatal(err)
				}
			}
			hash, free, depth := e.freeState.Hash(), e.freeState.TotalFree(), e.freeState.Savepoints()
			if err := e.ProcessNextEvent(); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
			}
			if e.freeState.Hash() != hash || e.freeState.TotalFree() != free || e.freeState.Savepoints() != depth {
				t.Errorf("rejected round left the free state at hash %#x, %d free, %d savepoints; before: %#x, %d, %d",
					e.freeState.Hash(), e.freeState.TotalFree(), e.freeState.Savepoints(), hash, free, depth)
			}
		})
	}
}

// scripted hands out a fixed decision map per round; rounds past the
// script reuse its last entry.
type scripted []map[int]cluster.Alloc

func (scripted) Name() string { return "test-scripted" }
func (s scripted) Schedule(ctx *sched.Context) map[int]cluster.Alloc {
	return s[min(ctx.Round, len(s)-1)]
}

// TestPauseAndIdleJobs pins, with the checker on, how a round treats
// jobs that hold nothing afterwards: job 1 runs in round 0 and is
// dropped in round 1 (exactly one pause event, in round 1, and nothing
// in round 2, when it is idle); job 3 is never placed, though the map
// names it with no workers in round 1 and with a zero-count placement
// in round 2, and emits nothing but its arrival. The checker sees
// every active job each round, in admission order, and each job that
// holds nothing with no allocation, a window of 0 and its remaining
// work unchanged.
func TestPauseAndIdleJobs(t *testing.T) {
	one := func(node int) cluster.Alloc { return cluster.Alloc{{Node: node, Type: gpu.V100, Count: 1}} }
	s := scripted{
		{1: one(0)},
		{2: one(1), 3: nil},
		{2: one(1), 3: {{Node: 0, Type: gpu.V100, Count: 0}}},
	}
	var log bytes.Buffer
	opts := ValidatedOptions()
	opts.EventLog = &log
	e, err := NewEngine(twoNodeCluster(), s, opts)
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 3; id++ {
		if err := e.SubmitJob(simpleJob(id, 1, 1e6, 0)); err != nil {
			t.Fatal(err)
		}
	}
	holds := []int{1, 2, 2} // the job holding devices, per round
	for round, held := range holds {
		if err := e.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
		if len(e.obs) != 3 {
			t.Fatalf("round %d: the checker saw %d jobs, want 3", round, len(e.obs))
		}
		for i, jr := range e.obs {
			if jr.Job.ID != i+1 {
				t.Errorf("round %d: observation %d is job %d, want job %d", round, i, jr.Job.ID, i+1)
			}
			if jr.Job.ID == held {
				continue
			}
			if jr.Alloc.Workers() != 0 || jr.Window != 0 || jr.RemainingAfter != jr.RemainingBefore { //lint:ignore floateq an idle job's remaining work is not touched at all
				t.Errorf("round %d: idle job %d observed as %+v, want no allocation, window 0 and no progress", round, jr.Job.ID, jr)
			}
		}
	}
	events, err := ReadEvents(&log)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range events {
		if ev.Type != EventArrive {
			got = append(got, fmt.Sprintf("%s:%d@%d", ev.Type, ev.Job, ev.Round))
		}
	}
	if want := []string{"start:1@0", "pause:1@1", "start:2@1"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("events other than arrivals = %v, want %v", got, want)
	}
}
