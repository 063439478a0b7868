package eventq

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEventQueueOrdersByTime(t *testing.T) {
	var q EventQueue
	q.Push(3, "c")
	q.Push(1, "a")
	q.Push(2, "b")
	var got []string
	for q.Len() > 0 {
		got = append(got, q.Pop().Payload.(string))
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}

func TestEventQueueFIFOTieBreak(t *testing.T) {
	var q EventQueue
	for i := 0; i < 5; i++ {
		q.Push(1.0, i)
	}
	for i := 0; i < 5; i++ {
		if got := q.Pop().Payload.(int); got != i {
			t.Fatalf("tie-break order: got %d at position %d", got, i)
		}
	}
}

func TestEventQueuePeek(t *testing.T) {
	var q EventQueue
	q.Push(5, "x")
	q.Push(2, "y")
	if q.Peek().Payload.(string) != "y" {
		t.Error("Peek did not return earliest")
	}
	if q.Len() != 2 {
		t.Error("Peek consumed an event")
	}
}

func TestEventQueuePopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop on empty queue did not panic")
		}
	}()
	var q EventQueue
	q.Pop()
}

func TestEventQueuePeekEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Peek on empty queue did not panic")
		}
	}()
	var q EventQueue
	q.Peek()
}

func TestEventQueueSortedProperty(t *testing.T) {
	prop := func(times []float64) bool {
		var q EventQueue
		for _, tm := range times {
			q.Push(tm, nil)
		}
		prev := math.Inf(-1)
		for q.Len() > 0 {
			e := q.Pop()
			if e.Time < prev {
				return false
			}
			prev = e.Time
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
