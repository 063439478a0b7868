package benchmark

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "root", StartNS: 0, EndNS: 100},
		// Two adjacent children and one nested grandchild.
		{ID: 1, Parent: 0, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 2, Parent: 0, Name: "b", StartNS: 30, EndNS: 50},
		{ID: 3, Parent: 1, Name: "a.inner", StartNS: 12, EndNS: 20},
		// A second root whose children overlap each other and one of
		// which reaches outside it: overlap counts once, overhang is cut.
		{ID: 4, Parent: -1, Name: "root2", StartNS: 200, EndNS: 300},
		{ID: 5, Parent: 4, Name: "c", StartNS: 210, EndNS: 250},
		{ID: 6, Parent: 4, Name: "d", StartNS: 240, EndNS: 260},
		{ID: 7, Parent: 4, Name: "e", StartNS: 290, EndNS: 320},
	}
	want := []int64{60, 12, 20, 8, 40, 40, 20, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestRootCoverageIgnoresChildrenAndClipsToTheWindow(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, StartNS: 0, EndNS: 40},
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 40},
		{ID: 2, Parent: -1, StartNS: 60, EndNS: 150},
	}
	if got := rootCoverage(spans, 0, 100); got != 0.8 {
		t.Errorf("coverage = %v, want 0.8", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	id := tr.Add("x", -1, 0, time.Now(), time.Now())
	if id != -1 || tr.Spans() != nil {
		t.Errorf("nil tracer returned id %d, spans %v", id, tr.Spans())
	}
}
