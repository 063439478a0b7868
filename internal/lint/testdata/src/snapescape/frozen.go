package snapescape

import "sort"

// Log is live state whose rows only ever grow.
type Log struct {
	Name string
	// Rows is append-only: published views share it by clamped prefix.
	Rows []int
	// Scratch carries no contract.
	Scratch []int
}

// View is the share-on-publish constructor: a struct copy whose
// reference-bearing fields are all overwritten — Rows with a clamped
// prefix, Scratch with a copy — before it can return.
func (l *Log) View() *Log {
	v := *l
	v.Rows = l.Rows[:len(l.Rows):len(l.Rows)]
	v.Scratch = append([]int(nil), l.Scratch...)
	return &v
}

// LeakyView forgets Scratch, so the copy still shares it.
func (l *Log) LeakyView() *Log {
	v := *l
	v.Rows = l.Rows[:len(l.Rows):len(l.Rows)]
	return &v
}

// MaybeView clamps on one path only: the overwrite sits under a
// condition, so it kills nothing.
func (l *Log) MaybeView(clamp bool) *Log {
	v := *l
	v.Scratch = nil
	if clamp {
		v.Rows = l.Rows[:len(l.Rows):len(l.Rows)]
	}
	return &v
}

// GrownView rebuilds Scratch by growing it in a loop: the field's
// aliases are those of every value it is given, its own growth
// included, so the view shares nothing.
func (l *Log) GrownView() *Log {
	v := *l
	v.Rows = l.Rows[:len(l.Rows):len(l.Rows)]
	v.Scratch = nil
	for _, r := range l.Scratch {
		v.Scratch = append(v.Scratch, r)
	}
	return &v
}

// SortRows sorts in place: fine for a log its caller built and still
// owns alone, a finding on one a view may share (see the call sites).
func (l *Log) SortRows() { sort.Ints(l.Rows) }

// Sorted is the copying counterpart: everything it writes hangs off a
// local that aliases nothing.
func (l *Log) Sorted() *Log {
	v := l.View()
	v.Rows = make([]int, len(l.Rows))
	copy(v.Rows, l.Rows)
	v.SortRows()
	return v
}

// Index is immutable after construction: with builds a new one.
type Index struct {
	runs [][]int
	n    int
}

// with writes only what it has just made.
func (x Index) with(id int) Index {
	runs := make([][]int, len(x.runs)+1)
	copy(runs, x.runs)
	runs[len(x.runs)] = []int{id}
	return Index{runs: runs, n: x.n + 1}
}

// patch writes through its receiver: judged where it is called.
func (x *Index) patch(id int) { x.runs[0][0] = id }

// Recorder owns a live log and a live index.
type Recorder struct {
	log *Log
	idx Index
}

// LogSnapshot is the published view of a Recorder.
type LogSnapshot struct {
	Rows []int
	Log  *Log
	Idx  Index
}

// GoodShare publishes by sharing: a clamped prefix, a view, and the
// immutable index by value.
func (r *Recorder) GoodShare() *LogSnapshot {
	n := len(r.log.Rows)
	return &LogSnapshot{
		Rows: r.log.Rows[:n:n],
		Log:  r.log.View(),
		Idx:  r.idx,
	}
}

// BadUnclamped leaves spare capacity a reader's append would write into.
func (r *Recorder) BadUnclamped() *LogSnapshot {
	n := len(r.log.Rows)
	return &LogSnapshot{Rows: r.log.Rows[:n]} // want "snapescape: snapshot field Rows aliases live state"
}

// BadLooseClamp clamps to something other than the length it shares.
func (r *Recorder) BadLooseClamp() *LogSnapshot {
	n := len(r.log.Rows)
	return &LogSnapshot{Rows: r.log.Rows[:n:cap(r.log.Rows)]} // want "snapescape: snapshot field Rows aliases live state"
}

// BadClampedScratch clamps a field that never promised to only grow.
func (r *Recorder) BadClampedScratch() *LogSnapshot {
	n := len(r.log.Scratch)
	return &LogSnapshot{Rows: r.log.Scratch[:n:n]} // want "snapescape: snapshot field Rows aliases live state"
}

// BadLeakyViews publish through the two broken constructors.
func (r *Recorder) BadLeakyViews(clamp bool) []*LogSnapshot {
	return []*LogSnapshot{
		{Log: r.log.LeakyView()},      // want "snapescape: snapshot field Log aliases live state"
		{Log: r.log.MaybeView(clamp)}, // want "snapescape: snapshot field Log aliases live state"
	}
}

// GoodWrites are the writes the contracts allow: growing the live log
// by append, extending the index by value, and anything at all on a
// log or index still being built.
func (r *Recorder) GoodWrites(id int) *Log {
	r.log.Rows = append(r.log.Rows, id)
	r.log.Scratch[0] = id
	r.idx = r.idx.with(id)
	fresh := &Log{Name: r.log.Name}
	fresh.Rows = make([]int, 4)
	fresh.Rows[0] = id
	fresh.SortRows()
	var built Index
	built = built.with(id)
	built.patch(id)
	return fresh
}

// BadWrites are the ones they forbid on live state.
func (r *Recorder) BadWrites(id int) {
	r.log.Rows[0] = id                     // want "snapescape: store into append-only field Rows of r.log"
	r.log.Rows[1]++                        // want "snapescape: store into append-only field Rows of r.log"
	sort.Ints(r.log.Rows)                  // want "snapescape: sort.Ints over append-only field Rows of r.log"
	copy(r.log.Rows, r.log.Scratch)        // want "snapescape: copy into append-only field Rows of r.log"
	r.log.Rows = r.log.Rows[:0]            // want "snapescape: rebinding append-only field Rows of r.log"
	r.log.Rows = append(r.log.Scratch, id) // want "snapescape: rebinding append-only field Rows of r.log"
	r.log.SortRows()                       // want "snapescape: calling \(\*Log\).SortRows, which rewrites in place the shared storage of r.log"
	reverse(r.log.Rows)                    // want "snapescape: passing to reverse, which writes, append-only field Rows of r.log"
	rows := r.log.Rows
	rows[0] = id        // want "snapescape: store into append-only field Rows of r.log"
	r.idx.runs[0] = nil // want "snapescape: store into immutable Index of r.idx"
	r.idx.n++           // want "snapescape: store into immutable Index of r.idx"
	for _, run := range r.idx.runs {
		run[0] = id // want "snapescape: store into immutable Index of r.idx"
	}
	r.idx.patch(id) // want "snapescape: calling \(\*Index\).patch, which rewrites in place the shared storage of r.idx"
	alias := r.log
	alias.Rows[0] = id // want "snapescape: store into append-only field Rows of alias"
	shallow := *r.log
	shallow.Rows = nil
	shallow.Rows = r.log.Rows
	shallow.Rows[0] = id // want "snapescape: store into append-only field Rows of shallow"
}

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
