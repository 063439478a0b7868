package sim

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/metrics"
)

// TestSnapshotImmutableUnderStepping takes a mid-run snapshot and
// checks it does not change while the engine keeps advancing — the
// copy-on-publish contract concurrent readers rely on.
func TestSnapshotImmutableUnderStepping(t *testing.T) {
	e, err := NewEngine(twoNodeCluster(), fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitJob(simpleJob(0, 2, 20000, 0)); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitJob(simpleJob(1, 1, 50000, 700)); err != nil {
		t.Fatal(err)
	}
	if err := e.ProcessNextEvent(); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.Now != 360 || snap.Round != 1 {
		t.Fatalf("snapshot at now=%v round=%d, want 360/1", snap.Now, snap.Round)
	}
	if len(snap.Active) != 1 || snap.Active[0].ID != 0 {
		t.Fatalf("active = %+v, want job 0 only", snap.Active)
	}
	if !snap.Active[0].Running || snap.Active[0].Alloc == "" {
		t.Errorf("job 0 should be running with an allocation, got %+v", snap.Active[0])
	}
	if snap.Pending != 1 {
		t.Errorf("pending = %d, want 1 (job 1 arrives at t=700)", snap.Pending)
	}
	if snap.HeldGPUs != 2 {
		t.Errorf("held = %d of %d, want 2", snap.HeldGPUs, snap.TotalGPUs)
	}

	// Freeze the observable state, keep stepping, re-compare.
	before, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	reportJobs := len(snap.Report.Jobs)
	driveEngine(t, e)
	after, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Errorf("snapshot mutated while engine ran:\nbefore: %s\nafter:  %s", before, after)
	}
	if len(snap.Report.Jobs) != reportJobs {
		t.Errorf("snapshot report grew from %d to %d jobs", reportJobs, len(snap.Report.Jobs))
	}
	if final := e.Snapshot(); final.Completed != 2 || len(final.Active) != 0 || final.Pending != 0 {
		t.Errorf("final snapshot = %d completed, %d active, %d pending; want 2/0/0",
			final.Completed, len(final.Active), final.Pending)
	}
	for seed := int64(1); seed <= 3; seed++ {
		checkSnapshotsStayFrozen(t, seed)
	}
}

// sameReport is deep equality but for DecisionTime, the one wall-clock
// field: two engines fed the same operations differ there.
func sameReport(a, b *metrics.Report) bool {
	x, y := *a, *b
	x.DecisionTime, y.DecisionTime = 0, 0
	return reflect.DeepEqual(x, y)
}

// frozen is one published snapshot beside what it looked like the
// moment it was published.
type frozen struct {
	snap   *Snapshot
	json   []byte
	report *metrics.Report // deep copy
	phases map[int]string  // from Engine.Phase, every ID submitted so far
}

// checkPublished holds a fresh snapshot against the engine it came
// from: the three shared slices are clamped, the phase view is the map
// it replaced (lookups, size, largest ID), and Result agrees with a
// scan of the report.
func checkPublished(t *testing.T, e *Engine, snap *Snapshot, submitted []int) map[int]string {
	t.Helper()
	r := snap.Report
	if cap(r.Jobs) != len(r.Jobs) || cap(r.RoundHeld) != len(r.RoundHeld) || cap(r.RoundStarts) != len(r.RoundStarts) {
		t.Fatalf("published slices not clamped: Jobs %d/%d RoundHeld %d/%d RoundStarts %d/%d",
			len(r.Jobs), cap(r.Jobs), len(r.RoundHeld), cap(r.RoundHeld), len(r.RoundStarts), cap(r.RoundStarts))
	}
	ref := make(map[int]string, len(submitted))
	maxID := 0
	for i, id := range submitted {
		p, ok := e.Phase(id)
		if !ok {
			t.Fatalf("engine forgot submitted job %d", id)
		}
		ref[id] = p.String()
		if i == 0 || id > maxID {
			maxID = id
		}
	}
	for id := -2; id < 230; id++ {
		want, wantOK := ref[id]
		if got, ok := snap.Phases.Get(id); got != want || ok != wantOK {
			t.Fatalf("Phases.Get(%d) = %q, %v; Engine.Phase says %q, %v", id, got, ok, want, wantOK)
		}
		var scan *metrics.JobResult
		for i := range r.Jobs {
			if r.Jobs[i].ID == id {
				scan = &r.Jobs[i]
			}
		}
		if got := snap.Result(id); got != scan {
			t.Fatalf("Result(%d) = %v, a scan of the report finds %v", id, got, scan)
		}
		if (scan != nil) != (want == "finished") {
			t.Fatalf("job %d is %q but has result %v", id, want, scan)
		}
	}
	if snap.Phases.Len() != len(ref) {
		t.Fatalf("Phases.Len() = %d, want %d", snap.Phases.Len(), len(ref))
	}
	if got, ok := snap.Phases.MaxID(); ok != (len(ref) > 0) || ok && got != maxID {
		t.Fatalf("Phases.MaxID() = %d, %v; want %d, %v", got, ok, maxID, len(ref) > 0)
	}
	return ref
}

// runSnapshotScript drives a seeded mix of submits (IDs 0..199 in a
// shuffled order, so 7, 10 and 100 sort differently as strings), cancels
// of pending, active, finished, cancelled and unknown IDs, and steps; a
// third of the way in it takes a mid-run Finish, two thirds in it hops
// through MarshalState and RestoreEngine and from there drives the
// original and the restored engine side by side. Every snapshot either
// engine publishes goes to publish, with the IDs submitted so far.
func runSnapshotScript(t *testing.T, seed int64, publish func(e *Engine, snap *Snapshot, submitted []int)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := rng.Perm(200)
	e, err := NewEngine(twoNodeCluster(), fifo{}, ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	engines := []*Engine{e}
	var submitted []int
	publishAll := func() {
		var first []byte
		for i, e := range engines {
			snap := e.Snapshot()
			publish(e, snap, submitted)
			data, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = data
			} else if string(data) != string(first) {
				t.Fatalf("restored engine publishes\n%s\nthe live one\n%s", data, first)
			} else if live := engines[0].Snapshot().Report; !sameReport(snap.Report, live) {
				t.Fatalf("restored engine's report is\n%+v\nthe live one's\n%+v", snap.Report, live)
			}
		}
	}
	publishAll() // the empty engine: no phases at all
	const ops = 450
	var midFinish, midFinishCopy *metrics.Report
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 4 && len(submitted) < len(ids):
			id := ids[len(submitted)]
			workers, iters, delay := 1+rng.Intn(4), float64(500+rng.Intn(60000)), float64(rng.Intn(1500))
			for _, e := range engines {
				if err := e.SubmitJob(simpleJob(id, workers, iters, e.Now()+delay)); err != nil {
					t.Fatal(err)
				}
			}
			submitted = append(submitted, id)
		case k == 4:
			id := rng.Intn(220) // some never submitted, some already terminal
			var first error
			for i, e := range engines {
				if err := e.CancelJob(id); i == 0 {
					first = err
				} else if (err == nil) != (first == nil) {
					t.Fatalf("cancel %d: live engine says %v, restored %v", id, first, err)
				}
			}
		default:
			for _, e := range engines {
				if err := e.ProcessNextEvent(); err != nil {
					t.Fatal(err)
				}
			}
		}
		publishAll()
		switch op {
		case ops / 3:
			if midFinish, err = e.Finish(); err != nil {
				t.Fatal(err)
			}
			midFinishCopy = midFinish.Clone()
			publishAll()
		case 2 * ops / 3:
			data, err := e.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreEngine(twoNodeCluster(), fifo{}, ValidatedOptions(), data)
			if err != nil {
				t.Fatal(err)
			}
			engines = append(engines, restored)
			publishAll()
		}
	}
	var finals []*metrics.Report
	for _, e := range engines {
		finals = append(finals, driveEngine(t, e))
	}
	publishAll()
	if !reflect.DeepEqual(midFinish, midFinishCopy) {
		t.Errorf("the report a mid-run Finish returned changed afterwards:\nthen %+v\nnow  %+v", midFinishCopy, midFinish)
	}
	if len(midFinish.Jobs) == 0 || len(midFinish.Jobs) == len(finals[0].Jobs) {
		t.Fatalf("mid-run Finish saw %d of %d jobs; the script no longer finishes jobs on both sides of it", len(midFinish.Jobs), len(finals[0].Jobs))
	}
	if !sameReport(finals[0], finals[1]) {
		t.Errorf("restored engine finished with\n%+v\nthe live one with\n%+v", finals[1], finals[0])
	}
	for _, r := range append(finals, midFinish) {
		if !sort.SliceIsSorted(r.Jobs, func(a, b int) bool { return r.Jobs[a].ID < r.Jobs[b].ID }) {
			t.Errorf("Finish returned jobs out of ID order")
		}
	}
}

// checkSnapshotsStayFrozen keeps every snapshot the script publishes,
// with a JSON encoding and a deep copy of its report taken at publish
// time, and re-compares all of them once both engines have drained:
// published means frozen, across appends, cancels, a mid-run Finish and
// a restore. Each snapshot's report must also extend the one before it
// — the engine's report stays in completion order for ever.
func checkSnapshotsStayFrozen(t *testing.T, seed int64) {
	t.Helper()
	var held []frozen
	last := map[*Engine]*Snapshot{}
	runSnapshotScript(t, seed, func(e *Engine, snap *Snapshot, submitted []int) {
		ref := checkPublished(t, e, snap, submitted)
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, frozen{snap: snap, json: data, report: snap.Report.Clone(), phases: ref})
		if prev := last[e]; prev != nil {
			if len(prev.Report.Jobs) > len(snap.Report.Jobs) {
				t.Fatalf("seed %d: published report shrank", seed)
			}
			for i, jr := range prev.Report.Jobs {
				if snap.Report.Jobs[i] != jr {
					t.Fatalf("seed %d: published report does not extend the previous one at %d (completion order lost)", seed, i)
				}
			}
		}
		last[e] = snap
	})
	terminal := 0
	for i, f := range held {
		data, err := json.Marshal(f.snap)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(f.json) {
			t.Fatalf("seed %d: snapshot %d of %d changed after publish:\nthen %s\nnow  %s", seed, i, len(held), f.json, data)
		}
		if !reflect.DeepEqual(f.snap.Report, f.report) {
			t.Fatalf("seed %d: snapshot %d's report changed after publish:\nthen %+v\nnow  %+v", seed, i, f.report, f.snap.Report)
		}
		for id, want := range f.phases {
			if got, _ := f.snap.Phases.Get(id); got != want {
				t.Fatalf("seed %d: snapshot %d says job %d is %q, said %q when published", seed, i, id, got, want)
			}
		}
		if f.snap.Phases.Len() != len(f.phases) {
			t.Fatalf("seed %d: snapshot %d knows %d jobs, knew %d when published", seed, i, f.snap.Phases.Len(), len(f.phases))
		}
		terminal = f.snap.Completed + f.snap.Cancelled
	}
	if terminal < 150 {
		t.Fatalf("seed %d: only %d jobs reached a terminal phase; the script no longer exercises the index", seed, terminal)
	}
}

// TestSnapshotReadersRace hands every published snapshot to a reader
// goroutine that encodes it and walks its shared slices while the
// script keeps stepping, finishing and restoring: under -race (make
// race-short) any write into memory a snapshot shares is reported.
func TestSnapshotReadersRace(t *testing.T) {
	snaps := make(chan *Snapshot, 16) // slack so the reader lags behind the writer
	done := make(chan error, 1)
	go func() {
		var held []*Snapshot
		var first error
		sink := 0
		// Keeps draining after an error: the script blocks on a full channel.
		for snap := range snaps {
			held = append(held, snap)
			// Re-read an old snapshot as well as the new one.
			for _, s := range []*Snapshot{snap, held[len(held)/2]} {
				if _, err := json.Marshal(s); err != nil && first == nil {
					first = err
				}
				for i := range s.Report.Jobs {
					id := s.Report.Jobs[i].ID
					if res := s.Result(id); (res == nil || res.ID != id) && first == nil {
						first = fmt.Errorf("Result(%d) = %v", id, res)
					}
				}
				for i := range s.Report.RoundHeld {
					sink += s.Report.RoundHeld[i] + int(s.Report.RoundStarts[i])
				}
			}
		}
		done <- first
	}()
	runSnapshotScript(t, 1, func(_ *Engine, snap *Snapshot, _ []int) { snaps <- snap })
	close(snaps)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestFinishReturnsACopy pins Finish's contract on a running engine:
// the report it returns is the caller's and never changes again, a
// second Finish equals what one Finish at the end would have returned,
// and the engine's own report — what snapshots publish — is in
// completion order before and after.
func TestFinishReturnsACopy(t *testing.T) {
	run := func(midFinish bool) (mid, midCopy, final *metrics.Report, snaps []*Snapshot) {
		e, err := NewEngine(twoNodeCluster(), fifo{}, ValidatedOptions())
		if err != nil {
			t.Fatal(err)
		}
		// IDs fall as submissions go on, so completion order (by arrival)
		// is the reverse of ID order.
		for i := 0; i < 6; i++ {
			if err := e.SubmitJob(simpleJob(20-i, 2, 3000, float64(400*i))); err != nil {
				t.Fatal(err)
			}
		}
		for e.Snapshot().Completed < 3 {
			if err := e.ProcessNextEvent(); err != nil {
				t.Fatal(err)
			}
		}
		snaps = append(snaps, e.Snapshot())
		if midFinish {
			if mid, err = e.Finish(); err != nil {
				t.Fatal(err)
			}
			midCopy = mid.Clone()
			snaps = append(snaps, e.Snapshot())
		}
		for i := 0; i < 3; i++ {
			if err := e.SubmitJob(simpleJob(10-i, 1, 2000, e.Now())); err != nil {
				t.Fatal(err)
			}
		}
		final = driveEngine(t, e)
		return mid, midCopy, final, append(snaps, e.Snapshot())
	}
	mid, midCopy, final, snaps := run(true)
	_, _, single, _ := run(false)
	if !reflect.DeepEqual(mid, midCopy) {
		t.Errorf("first Finish's report changed under its caller:\nthen %+v\nnow  %+v", midCopy, mid)
	}
	if cap(mid.Jobs) != len(mid.Jobs) {
		t.Errorf("Finish returned %d jobs in an array of %d", len(mid.Jobs), cap(mid.Jobs))
	}
	if !sameReport(final, single) {
		t.Errorf("second Finish returned\n%+v\na run with one Finish\n%+v", final, single)
	}
	if len(final.Jobs) != 9 || final.Jobs[0].ID != 8 || final.Jobs[8].ID != 20 {
		t.Fatalf("final report = %+v, want 9 jobs in ID order 8..10, 15..20", final.Jobs)
	}
	for i, snap := range snaps {
		jobs := snap.Report.Jobs
		if !sort.SliceIsSorted(jobs, func(a, b int) bool { return jobs[a].Finish < jobs[b].Finish }) {
			t.Errorf("snapshot %d publishes jobs out of completion order: %+v", i, jobs)
		}
		if len(jobs) >= 3 && (jobs[0].ID != 20 || jobs[2].ID != 18) {
			t.Errorf("snapshot %d starts with jobs %d, %d, %d; want 20, 19, 18", i, jobs[0].ID, jobs[1].ID, jobs[2].ID)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes.
func bytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestSnapshotCostFlatInHistory is the machine-independent gate on the
// publish path: with the same jobs active and pending, a snapshot over
// 4 000 completed jobs allocates what one over 1 000 does. Copying the
// report or rebuilding a phase per submitted job makes it ≈ 4×.
func TestSnapshotCostFlatInHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("completes 5 000 jobs")
	}
	cost := func(history int) (allocs, bytes float64) {
		e, err := NewEngine(twoNodeCluster(), fifo{}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < history; id++ {
			if err := e.SubmitJob(simpleJob(id, 1, 100, 0)); err != nil {
				t.Fatal(err)
			}
		}
		for e.HasPendingEvents() {
			if err := e.ProcessNextEvent(); err != nil {
				t.Fatal(err)
			}
		}
		// The live set under measurement: three running, one queued
		// behind them, two not yet arrived.
		for i, workers := range []int{4, 4, 2, 4} {
			if err := e.SubmitJob(simpleJob(10000+i, workers, 1e9, e.Now())); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			if err := e.SubmitJob(simpleJob(20000+i, 1, 1e9, e.Now()+1e6)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
		snap := e.Snapshot()
		if snap.Completed != history || len(snap.Active) != 4 || snap.Pending != 2 || snap.HeldGPUs != 10 {
			t.Fatalf("history %d: %d completed, %d active, %d pending, %d held; want %d/4/2/10",
				history, snap.Completed, len(snap.Active), snap.Pending, snap.HeldGPUs, history)
		}
		var sink int
		allocs = testing.AllocsPerRun(200, func() { sink += e.Snapshot().Completed })
		bytes = bytesPerRun(200, func() { sink += e.Snapshot().Completed })
		return allocs, bytes
	}
	allocs1k, bytes1k := cost(1000)
	allocs4k, bytes4k := cost(4000)
	t.Logf("Snapshot: %v allocs, %.0f B over 1 000 completed jobs; %v allocs, %.0f B over 4 000", allocs1k, bytes1k, allocs4k, bytes4k)
	if allocs4k > allocs1k+2 || bytes4k > bytes1k+256 {
		t.Errorf("publish cost grows with history: %v allocs / %.0f B at 1 000 completed jobs, %v / %.0f B at 4 000",
			allocs1k, bytes1k, allocs4k, bytes4k)
	}
}
