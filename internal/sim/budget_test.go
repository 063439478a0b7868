package sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// newEngineAllocs is what building the paper's scheduler and an engine
// over the paper's cluster allocates: 33 before share-on-publish
// (PR 23), one less since the phase map is made on first submit. Every
// repetition of the sim-* benchmark workloads pays it as set-up, so a
// field that wants an allocation here is made on first use instead.
const newEngineAllocs = 32

func TestNewEngineAllocBudget(t *testing.T) {
	c := experiments.SimCluster()
	got := testing.AllocsPerRun(100, func() {
		if _, err := sim.NewEngine(c, core.New(core.DefaultOptions()), sim.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	if got > newEngineAllocs {
		t.Errorf("core.New + sim.NewEngine allocate %v times, budget %d", got, newEngineAllocs)
	}
}
