package sim

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cluster"
)

// EventType labels one simulator event.
type EventType string

// Event types emitted by the simulator.
const (
	// EventArrive: a job entered the queue.
	EventArrive EventType = "arrive"
	// EventStart: a job received its first allocation.
	EventStart EventType = "start"
	// EventRealloc: a running job's allocation changed
	// (checkpoint-restart).
	EventRealloc EventType = "realloc"
	// EventPause: a running job lost its allocation (preempted to zero).
	EventPause EventType = "pause"
	// EventFinish: a job completed all its iterations.
	EventFinish EventType = "finish"
	// EventCancel: a job was withdrawn (Engine.CancelJob) before
	// completing; pending and running jobs alike leave the simulation
	// at the boundary that processes the withdrawal.
	EventCancel EventType = "cancel"
	// EventNodeDown / EventNodeUp: a machine outage began/ended at a
	// round boundary.
	EventNodeDown EventType = "node_down"
	EventNodeUp   EventType = "node_up"
)

// Event is one line of the simulation event log.
type Event struct {
	// Time is the simulated time in seconds.
	Time float64 `json:"t"`
	// Round is the scheduling round index.
	Round int `json:"round"`
	// Type is the event kind.
	Type EventType `json:"type"`
	// Job is the job ID for job events (-1 for node events).
	Job int `json:"job"`
	// Node is the machine for node events (-1 for job events).
	Node int `json:"node"`
	// Alloc describes the job's allocation after the event.
	Alloc string `json:"alloc,omitempty"`
}

// eventLogger serializes events as JSON lines; a nil logger drops them.
type eventLogger struct {
	enc *json.Encoder
}

func newEventLogger(w io.Writer) *eventLogger {
	if w == nil {
		return nil
	}
	return &eventLogger{enc: json.NewEncoder(w)}
}

func (l *eventLogger) emit(e Event) error {
	if l == nil {
		return nil
	}
	if err := l.enc.Encode(e); err != nil {
		return fmt.Errorf("sim: event log: %w", err)
	}
	return nil
}

// emitAlloc emits e with its Alloc field rendered from a. The rendering
// is skipped, with the event, when there is no logger.
func (l *eventLogger) emitAlloc(e Event, a cluster.Alloc) error {
	if l == nil {
		return nil
	}
	e.Alloc = a.String()
	return l.emit(e)
}

// ReadEvents parses an event log produced via Options.EventLog.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("sim: event log line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sim: event log: %w", err)
	}
	return out, nil
}
