package conformance

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestRestoreResumesEveryPolicy pins sim.RestoreEngine's contract for
// every policy in the table: an engine checkpointed mid-run and
// restored with a fresh instance of its policy steps through the same
// chained digest as the uninterrupted run, at every step to the end.
// A policy whose decisions depend on state it carries across rounds
// fails here, and cannot sit behind hadard -recover.
func TestRestoreResumesEveryPolicy(t *testing.T) {
	core.PanicOnInconsistency = true
	cuts := []int{20, 60, 150} // events processed before each checkpoint
	for name, mk := range policies() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			eng, err := sim.NewEngine(experiments.SimCluster(), mk(), sim.ValidatedOptions())
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range seededTrace(t, 1, trace.Poisson, 96) {
				if err := eng.SubmitJob(j); err != nil {
					t.Fatal(err)
				}
			}
			// digests[k] is the chained digest after k+1 events.
			var digests []uint64
			states := make(map[int][]byte, len(cuts))
			for next := 0; ; {
				if next < len(cuts) && len(digests) == cuts[next] {
					if states[cuts[next]], err = eng.MarshalState(); err != nil {
						t.Fatal(err)
					}
					next++
				}
				if !eng.HasPendingEvents() {
					break
				}
				if err := eng.ProcessNextEvent(); err != nil {
					t.Fatal(err)
				}
				digests = append(digests, eng.Digest())
			}
			for _, cut := range cuts {
				data, ok := states[cut]
				if !ok {
					t.Fatalf("the run drained after %d events, before the cut at %d", len(digests), cut)
				}
				restored, err := sim.RestoreEngine(experiments.SimCluster(), mk(), sim.ValidatedOptions(), data)
				if err != nil {
					t.Fatal(err)
				}
				for k := cut; k < len(digests); k++ {
					if !restored.HasPendingEvents() {
						t.Fatalf("cut %d: restored engine drained at event %d of %d", cut, k+1, len(digests))
					}
					if err := restored.ProcessNextEvent(); err != nil {
						t.Fatalf("cut %d: restored engine failed at event %d of %d: %v", cut, k+1, len(digests), err)
					}
					if got := restored.Digest(); got != digests[k] {
						t.Fatalf("cut %d: digest %#x after event %d, the uninterrupted run had %#x",
							cut, got, k+1, digests[k])
					}
				}
				if restored.HasPendingEvents() {
					t.Fatalf("cut %d: restored engine still running after the uninterrupted run drained", cut)
				}
			}
		})
	}
}
