package sim

import (
	"cmp"
	"slices"
)

// terminalEntry records how one job ended: ref is the job's index in
// the engine report's Jobs when it finished, cancelledRef when it was
// withdrawn.
type terminalEntry struct{ id, ref int }

const cancelledRef = -1

func (e terminalEntry) phase() JobPhase {
	if e.ref == cancelledRef {
		return JobCancelled
	}
	return JobFinished
}

// terminalIndex maps every terminal job's ID to its terminalEntry. It
// is immutable after construction: with returns a new index and writes
// neither the receiver's run headers nor any run, so the engine hands
// the same value to every snapshot it publishes and readers need no
// lock. The entries live in runs sorted by ID whose lengths strictly
// decrease (the logarithmic method: an insert merges the trailing runs
// no longer than what it has gathered so far into one fresh run), so an
// index of n jobs has at most ⌈log₂ n⌉+1 runs, a lookup is a binary
// search per run, and a job is copied O(log n) times over its life.
type terminalIndex struct {
	runs [][]terminalEntry
	n    int
}

// with returns the index extended by one terminal job.
func (t terminalIndex) with(id, ref int) terminalIndex {
	k, size := len(t.runs), 1
	for k > 0 && len(t.runs[k-1]) <= size {
		k--
		size += len(t.runs[k])
	}
	run := make([]terminalEntry, 0, size)
	for _, r := range t.runs[k:] {
		run = append(run, r...)
	}
	run = append(run, terminalEntry{id: id, ref: ref})
	slices.SortFunc(run, func(a, b terminalEntry) int { return cmp.Compare(a.id, b.id) })
	runs := make([][]terminalEntry, k+1)
	copy(runs, t.runs[:k])
	runs[k] = run
	return terminalIndex{runs: runs, n: t.n + 1}
}

// get looks a terminal job up.
func (t terminalIndex) get(id int) (terminalEntry, bool) {
	for _, run := range t.runs {
		i, ok := slices.BinarySearchFunc(run, id, func(e terminalEntry, id int) int { return cmp.Compare(e.id, id) })
		if ok {
			return run[i], true
		}
	}
	return terminalEntry{}, false
}

// livePhase is one pending or active job's stage in a PhaseView.
type livePhase struct {
	id    int
	phase JobPhase
}

// PhaseView answers "what stage is job id in" for every job an engine
// had been given when a snapshot was published. It holds a copy of the
// jobs then pending or active — one slice sorted by ID, bounded by the
// queue, built per publish — and the engine's terminalIndex by value,
// so a publish costs nothing per job that has already ended. A nil
// *PhaseView is the view of an engine that was never given a job.
type PhaseView struct {
	live  []livePhase
	done  terminalIndex
	maxID int
}

// newPhaseView copies the engine's live phases, sorted by ID, beside
// its terminal index.
func newPhaseView(live map[int]JobPhase, done terminalIndex, maxID int) *PhaseView {
	v := &PhaseView{live: make([]livePhase, 0, len(live)), done: done, maxID: maxID}
	//lint:ignore maprange the copy is sorted by ID below
	for id, p := range live {
		v.live = append(v.live, livePhase{id: id, phase: p})
	}
	slices.SortFunc(v.live, func(a, b livePhase) int { return cmp.Compare(a.id, b.id) })
	return v
}

// Get returns the job's lifecycle stage ("pending", "active",
// "finished", "cancelled"); ok is false for an ID never submitted.
func (v *PhaseView) Get(id int) (phase string, ok bool) {
	if v == nil {
		return "", false
	}
	if i, ok := slices.BinarySearchFunc(v.live, id, func(p livePhase, id int) int { return cmp.Compare(p.id, id) }); ok {
		return v.live[i].phase.String(), true
	}
	if e, ok := v.done.get(id); ok {
		return e.phase().String(), true
	}
	return "", false
}

// Len is the number of jobs the view knows.
func (v *PhaseView) Len() int {
	if v == nil {
		return 0
	}
	return len(v.live) + v.done.n
}

// MaxID returns the largest job ID the view knows; ok is false when it
// knows none.
func (v *PhaseView) MaxID() (id int, ok bool) {
	if v == nil {
		return 0, false
	}
	return v.maxID, true
}
