package experiments

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestHeadlineShape verifies the paper's headline result holds in the
// reproduction on the static trace scaled to 96 jobs: Hadar achieves the
// lowest average JCT, beating Gavel, Tiresias and YARN-CS.
func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison is slow")
	}
	cfg := trace.DefaultConfig()
	cfg.NumJobs = 96
	cfg.Seed = 1
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scheds := []sched.Scheduler{NewHadar(), NewGavel(), NewTiresias(), NewYARNCS()}
	cmp, err := RunComparison(SimCluster(), jobs, scheds, sim.ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + cmp.Table())

	hadar := cmp.Reports["hadar"].AvgJCT()
	for _, name := range []string{"gavel", "tiresias", "yarn-cs"} {
		if other := cmp.Reports[name].AvgJCT(); hadar >= other {
			t.Errorf("Hadar avg JCT %.0fs not better than %s %.0fs", hadar, name, other)
		}
	}
}
