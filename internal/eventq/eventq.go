// Package eventq implements the simulator's time-ordered event queue
// for discrete-event processing: a min-heap of timestamped payloads
// with FIFO order among simultaneous events.
package eventq

import (
	"container/heap"
	"sort"

	"repro/internal/bug"
)

// Event is a timestamped payload in an EventQueue. Ties on Time are
// broken by ascending Seq (FIFO among simultaneous events) so the
// simulation is deterministic.
type Event struct {
	Time    float64
	Seq     int
	Payload interface{}
}

// EventQueue is a min-heap of Events ordered by (Time, Seq). The zero
// value is ready to use.
type EventQueue struct {
	h   eventHeap
	seq int
}

type eventHeap []Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].Time < h[j].Time {
		return true
	}
	if h[i].Time > h[j].Time {
		return false
	}
	return h[i].Seq < h[j].Seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(Event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Push schedules payload at the given time.
func (q *EventQueue) Push(time float64, payload interface{}) {
	q.seq++
	heap.Push(&q.h, Event{Time: time, Seq: q.seq, Payload: payload})
}

// Pop removes and returns the earliest event. It panics on an empty
// queue; check Len first.
func (q *EventQueue) Pop() Event {
	if len(q.h) == 0 {
		bug.Failf("eventq: Pop on empty EventQueue")
	}
	return heap.Pop(&q.h).(Event)
}

// Peek returns the earliest event without removing it. It panics on an
// empty queue.
func (q *EventQueue) Peek() Event {
	if len(q.h) == 0 {
		bug.Failf("eventq: Peek on empty EventQueue")
	}
	return q.h[0]
}

// Len reports the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// Snapshot returns a copy of every pending event in pop order — (Time,
// Seq) ascending — without disturbing the queue. Checkpointing uses it
// to serialize the queue; re-pushing the events in this order onto a
// fresh queue reproduces the original pop order (fresh sequence numbers
// are assigned in the same relative order).
func (q *EventQueue) Snapshot() []Event {
	out := append([]Event(nil), q.h...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time < out[j].Time {
			return true
		}
		if out[i].Time > out[j].Time {
			return false
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
