package federation_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/federation"
	"repro/internal/job"
	"repro/internal/sim"
)

// encodeState is f's checkpoint encoding: AppendState's parts after an
// opening brace, joined.
func encodeState(t *testing.T, f *federation.Federation) []byte {
	t.Helper()
	parts, err := f.AppendState([][]byte{[]byte("{")})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Join(parts, nil)
}

// stateOf checkpoints f and reads the bytes back, as recovery reads a
// checkpoint file.
func stateOf(t *testing.T, f *federation.Federation) federation.State {
	t.Helper()
	var st federation.State
	if err := json.Unmarshal(encodeState(t, f), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAppendStateIsStateJSON checkpoints a three-member federation
// every four events and requires the spliced parts to be the bytes the
// encoder they replaced wrote: json.Marshal of a State holding the same
// member sections. Each member's section is pinned to its own reference
// encoder in internal/sim; this pins the splice around them, through a
// pending cancel, a down node and a routing cursor past 0.
func TestAppendStateIsStateJSON(t *testing.T) {
	f := newFed(t, 3, "round-robin", func(i int) []sim.Failure {
		return []sim.Failure{{Node: i, Start: 3700, End: 9 * 3600}}
	})
	jobs := genJobs(t, 48, 7)
	var shapes []string
	for event := 0; len(jobs) > 0 || f.HasPendingEvents(); event++ {
		if len(jobs) > 0 {
			if err := f.SubmitJob(jobs[0]); err != nil {
				t.Fatal(err)
			}
			jobs = jobs[1:]
		}
		if err := f.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
		if event%9 == 0 {
			for _, m := range f.Snapshot().Members {
				if len(m.Snap.Active) > 0 {
					if err := f.CancelJob(m.Snap.Active[0].ID); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		}
		if event%4 != 0 {
			continue
		}
		got := encodeState(t, f)
		var st federation.State
		if err := json.Unmarshal(got, &st); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(&st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("event %d: spliced state differs from json.Marshal of its State:\n got %.200s\nwant %.200s", event, got, want)
		}
		for _, shape := range []string{`"cancel_requested":[`, `"prev_down":[`, `"next":`} {
			if bytes.Contains(got, []byte(shape)) && !slices.Contains(shapes, shape) {
				shapes = append(shapes, shape)
			}
		}
	}
	if len(shapes) != 3 {
		t.Errorf("the checkpoints only held %q", shapes)
	}
}

// TestRouteJobChangesNothing: RouteJob is an audit — asking twice gives
// the same member — and a submission the member refuses (never
// journaled, so never replayed) leaves the next pick where it was. A
// round-robin router that kept its own cursor failed both.
func TestRouteJobChangesNothing(t *testing.T) {
	f := newFed(t, 3, "round-robin", nil)
	jobs := genJobs(t, 6, 11)
	for i, j := range jobs[:4] {
		first, err := f.RouteJob(j)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := f.RouteJob(j); again != first || first != i%3 {
			t.Fatalf("job %d: RouteJob = %d then %d, want %d both times", i, first, again, i%3)
		}
		// A malformed job routes (it has usable types and a small gang)
		// but its member's engine refuses it.
		bad := *j
		bad.ID, bad.Epochs = 1000+i, 0
		if err := f.SubmitJob(&bad); err == nil {
			t.Fatal("member accepted a job with no work")
		}
		if err := f.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
		if err := f.SubmitJob(j); err == nil {
			t.Fatal("duplicate accepted")
		}
		if owner, _ := f.Owner(j.ID); owner != first {
			t.Fatalf("job %d: audited route %d, submitted to %d", i, first, owner)
		}
	}
}

// TestRestoreStateResumes checkpoints a federation mid-run, restores a
// fresh one from the bytes, and drives both on with the same late
// submissions: same owners (the cursor is restored), same per-member
// digests after every step, same final report.
func TestRestoreStateResumes(t *testing.T) {
	for _, router := range federation.RouterNames() {
		t.Run(router, func(t *testing.T) {
			jobs := genJobs(t, 40, 5)
			live := newFed(t, 3, router, nil)
			for _, j := range jobs[:25] {
				if err := live.SubmitJob(j); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 30; i++ {
				if err := live.ProcessNextEvent(); err != nil {
					t.Fatal(err)
				}
			}
			// A cancellation still waiting for its boundary is state too.
			cancelled := false
			for _, m := range live.Snapshot().Members {
				if len(m.Snap.Active) > 0 && !cancelled {
					if err := live.CancelJob(m.Snap.Active[0].ID); err != nil {
						t.Fatal(err)
					}
					cancelled = true
				}
			}
			if !cancelled {
				t.Fatal("nothing active to cancel at the checkpoint")
			}
			restored := newFed(t, 3, router, nil)
			if err := restored.RestoreState(stateOf(t, live)); err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs[:25] {
				want, _ := live.Owner(j.ID)
				if got, ok := restored.Owner(j.ID); !ok || got != want {
					t.Fatalf("job %d: restored owner %d (%v), want %d", j.ID, got, ok, want)
				}
			}
			if err := restored.SubmitJob(jobs[3]); err == nil {
				t.Error("restored federation accepted an ID it already holds")
			}
			both := func(what string, op func(f *federation.Federation) error) {
				t.Helper()
				if err := op(live); err != nil {
					t.Fatalf("%s on the live federation: %v", what, err)
				}
				if err := op(restored); err != nil {
					t.Fatalf("%s on the restored federation: %v", what, err)
				}
				rs, ls := restored.Snapshot(), live.Snapshot()
				for i := range ls.Members {
					if got, want := rs.Members[i].Snap.Digest, ls.Members[i].Snap.Digest; got != want {
						t.Fatalf("%s: restored member %d digest %#x, live %#x", what, i, got, want)
					}
				}
			}
			// Late submissions route on the restored state exactly as on
			// the live one, then go where the live run put them — what a
			// journal replay does.
			for _, j := range jobs[25:] {
				j := j
				if err := live.SubmitJob(j); err != nil {
					t.Fatal(err)
				}
				owner, _ := live.Owner(j.ID)
				if cold, err := restored.RouteJob(j); err != nil || cold != owner {
					t.Fatalf("job %d: restored federation routes to %d (%v), live run to %d", j.ID, cold, err, owner)
				}
				if err := restored.SubmitTo(owner, j); err != nil {
					t.Fatal(err)
				}
				both("step", (*federation.Federation).ProcessNextEvent)
			}
			for live.HasPendingEvents() {
				both("step", (*federation.Federation).ProcessNextEvent)
			}
			if restored.HasPendingEvents() {
				t.Error("restored federation still has events after the live one drained")
			}
			a, err := live.Finish()
			if err != nil {
				t.Fatal(err)
			}
			b, err := restored.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Merged.Jobs) != len(b.Merged.Jobs) || a.Merged.Makespan != b.Merged.Makespan {
				t.Errorf("final reports differ: %d jobs makespan %v vs %d jobs makespan %v",
					len(a.Merged.Jobs), a.Merged.Makespan, len(b.Merged.Jobs), b.Merged.Makespan)
			}
		})
	}
}

// TestRestoreStateRefusals: a state that does not fit the federation is
// an error that says why, and the possibly half-restored federation
// refuses to be used.
func TestRestoreStateRefusals(t *testing.T) {
	src := newFed(t, 2, "round-robin", nil)
	jobs := genJobs(t, 4, 2)
	for _, j := range jobs {
		if err := src.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
	}
	good := stateOf(t, src)
	cases := []struct {
		name  string
		state federation.State
		want  string
	}{
		{"too few sections", federation.State{Members: good.Members[:1]}, "1 member sections"},
		{"cursor past the end", federation.State{Members: good.Members, Next: 3}, "routing cursor 3"},
		{"negative cursor", federation.State{Members: good.Members, Next: -1}, "routing cursor -1"},
		{"a job in two sections", federation.State{Members: []json.RawMessage{good.Members[0], good.Members[0]}}, "in the sections of both"},
		{"garbage section", federation.State{Members: []json.RawMessage{good.Members[0], json.RawMessage(`{"version":1`)}}, "restore member region1"},
	}
	for _, tc := range cases {
		f := newFed(t, 2, "round-robin", nil)
		err := f.RestoreState(tc.state)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RestoreState = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
		if f.SubmitJob(&job.Job{ID: 1, Workers: 1, Epochs: 1, ItersPerEpoch: 1, Throughput: jobs[0].Throughput}) == nil {
			t.Errorf("%s: federation still usable after a refused restore", tc.name)
		}
	}
	if err := src.RestoreState(good); err == nil {
		t.Error("RestoreState into a federation that already holds jobs succeeded, want a refusal")
	} else if err := src.ProcessNextEvent(); err != nil {
		t.Errorf("a refused RestoreState left the federation poisoned: %v", err)
	}
}
