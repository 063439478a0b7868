package sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

// newEngineAllocs is what building the paper's scheduler and an engine
// over the paper's cluster allocates: 33 before share-on-publish
// (PR 23), 32 once the phase map was made on first submit, 31 since the
// engine keeps no down-node map without outages (PR 25). Every
// repetition of the sim-* benchmark workloads pays it as set-up, so a
// field that wants an allocation here is made on first use instead —
// the round scratch included.
const newEngineAllocs = 31

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

// roundAllocs is what one ProcessNextEvent allocates on average once an
// engine is warm, over a window of 200 rounds of Hadar on a 64-job
// backlog over the paper's cluster: measured 1 (Go 1.24). A steady round makes none: the
// scheduler lends its decision map and retain arena until the next call
// (core's TestWarmScheduleAllocatesNothing), and the engine's share —
// context, job list, the per-job decision records and their ID-order
// index, the round's canonical-form buffer, digest — reuses scratch. What remains is per change: the engine copies each
// allocation that changed out of the lent arena, and a finishing job
// adds its terminal-index entry and report row (1 each). The margin of
// 1 absorbs a window with more changes.
const roundAllocs = 2

func TestRoundAllocBudget(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.NumJobs = 64
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(experiments.SimCluster(), core.New(core.DefaultOptions()), sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := eng.SubmitJob(j); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: admission and the first rounds grow the engine's and the
	// scheduler's scratch to the backlog's size.
	for i := 0; i < 20; i++ {
		if err := eng.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(200, func() {
		if err := eng.ProcessNextEvent(); err != nil {
			t.Fatal(err)
		}
	})
	if !eng.HasPendingEvents() {
		t.Fatal("the trace drained inside the measured window")
	}
	if got > roundAllocs {
		t.Errorf("a warm round allocates %v times, budget %d", got, roundAllocs)
	}
	t.Logf("%v allocations per round", got)
}
