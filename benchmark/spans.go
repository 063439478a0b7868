package benchmark

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary the harness can see.
// Spans of one request or round share Op; Parent is the ID of the span
// that caused this one, or -1 for a root.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Op      int64  `json:"op"`
}

// Tracer collects spans in memory and writes them out when the
// repetition ends. A nil *Tracer records nothing, so the timed and the
// traced repetition run the same code.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewTracer preallocates room for capacity spans.
func NewTracer(capacity int) *Tracer {
	return &Tracer{epoch: time.Now(), spans: make([]Span, 0, capacity)}
}

// Begin opens a span at start and returns its ID (-1 on a nil tracer).
func (t *Tracer) Begin(name string, parent int, op int64, start time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, StartNS: start.Sub(t.epoch).Nanoseconds(), Op: op})
	return id
}

// End closes the span at end.
func (t *Tracer) End(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].EndNS = end.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

// Add records a complete span.
func (t *Tracer) Add(name string, parent int, op int64, start, end time.Time) int {
	id := t.Begin(name, parent, op, start)
	t.End(id, end)
	return id
}

// Spans returns the recorded spans; the tracer must be quiescent.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// ns converts a wall-clock instant to the tracer's time base.
func (t *Tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// WriteFile writes the spans as JSON.
func (t *Tracer) WriteFile(path, workload string, seed int64) error {
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []Span `json:"spans"`
	}{workload, seed, t.Spans()}
	data, err := json.Marshal(&doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

type interval struct{ lo, hi int64 }

// covered returns the total length of the union of the intervals,
// each clipped to [lo, hi].
func covered(iv []interval, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total int64
	edge := lo
	for _, v := range iv {
		if v.lo < edge {
			v.lo = edge
		}
		if v.hi > hi {
			v.hi = hi
		}
		if v.hi > v.lo {
			total += v.hi - v.lo
			edge = v.hi
		}
	}
	return total
}

// selfTimes returns, per span ID, the span's duration minus the part
// of its interval that its child spans cover. Overlapping children are
// counted once; a child reaching outside its parent is clipped.
func selfTimes(spans []Span) []int64 {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.StartNS, s.EndNS})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNS - s.StartNS - covered(children[s.ID], s.StartNS, s.EndNS)
	}
	return self
}

// rootCoverage is the share of [lo, hi] that root spans cover.
func rootCoverage(spans []Span, lo, hi int64) float64 {
	if hi <= lo {
		return 0
	}
	var roots []interval
	for _, s := range spans {
		if s.Parent < 0 {
			roots = append(roots, interval{s.StartNS, s.EndNS})
		}
	}
	return float64(covered(roots, lo, hi)) / float64(hi-lo)
}
