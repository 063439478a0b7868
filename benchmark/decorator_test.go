package benchmark

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/sim"
)

// fixedScheduler returns the same map every round.
type fixedScheduler struct{ out map[int]cluster.Alloc }

func (fixedScheduler) Name() string                                    { return "fixed" }
func (f fixedScheduler) Schedule(*sched.Context) map[int]cluster.Alloc { return f.out }

func TestDecoratorReturnsTheWrappedMapItself(t *testing.T) {
	out := map[int]cluster.Alloc{7: {{Node: 0, Count: 1}}}
	dec := newTimedScheduler(fixedScheduler{out}, NewTracer(4), 10)
	got := dec.Schedule(&sched.Context{})
	if reflect.ValueOf(got).Pointer() != reflect.ValueOf(out).Pointer() {
		t.Fatal("decorator returned another map than the wrapped scheduler's")
	}
	if len(got) != 1 || got[7].Workers() != 1 {
		t.Fatalf("decorator changed the map: %v", got)
	}
	if dec.Name() != "fixed" || len(dec.callUS) != 1 || len(dec.tr.Spans()) != 1 {
		t.Errorf("name %q, %d calls, %d spans", dec.Name(), len(dec.callUS), len(dec.tr.Spans()))
	}
}

func TestDecoratorLeavesTheDigestAlone(t *testing.T) {
	w := Workload{Name: "sim-paper-480", Jobs: 48}
	var digests []uint64
	for _, tr := range []*Tracer{nil, NewTracer(1024)} {
		r, err := w.setupSim(1, sim.DefaultOptions(), tr)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.run(tr)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, rep.digest)
	}
	if digests[0] != digests[1] || digests[0] == 0 {
		t.Errorf("digest %#x without the decorator, %#x with it", digests[0], digests[1])
	}
}

func TestDecoratorKeepsABoundedSampleOfRounds(t *testing.T) {
	dec := newTimedScheduler(fixedScheduler{map[int]cluster.Alloc{}}, nil, 10)
	for i := 0; i < 10*maxRecordedRounds; i++ {
		dec.Schedule(&sched.Context{Round: i})
	}
	if len(dec.rounds) == 0 || len(dec.rounds) >= maxRecordedRounds {
		t.Errorf("kept %d rounds, want some but fewer than %d", len(dec.rounds), maxRecordedRounds)
	}
}
