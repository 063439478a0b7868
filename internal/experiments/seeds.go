package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// SeedSweep aggregates the static-trace comparison across random seeds,
// with bootstrap confidence intervals on average JCT and on Hadar's
// speedup factors — the statistical backing the paper's point estimates
// lack.
type SeedSweep struct {
	Seeds []int64
	// AvgJCT[scheduler] holds one average JCT (seconds) per seed.
	AvgJCT map[string][]float64
	// Speedup[baseline] holds Hadar's per-seed avg-JCT speedup factor.
	Speedup map[string][]float64
	Order   []string
}

// SweepSeeds runs the Fig. 3a comparison for numSeeds consecutive seeds
// starting at setup.Seed.
func SweepSeeds(setup Setup, numSeeds int) (*SeedSweep, error) {
	if numSeeds <= 0 {
		return nil, fmt.Errorf("experiments: non-positive seed count %d", numSeeds)
	}
	sw := &SeedSweep{
		AvgJCT:  make(map[string][]float64),
		Speedup: make(map[string][]float64),
	}
	for i := 0; i < numSeeds; i++ {
		seed := setup.Seed + int64(i)
		sw.Seeds = append(sw.Seeds, seed)
		s := setup
		s.Seed = seed
		fig3, err := Fig3(s, false)
		if err != nil {
			return nil, err
		}
		cmp := fig3.Cmp
		if len(sw.Order) == 0 {
			sw.Order = cmp.Order
		}
		for _, name := range cmp.Order {
			sw.AvgJCT[name] = append(sw.AvgJCT[name], cmp.Reports[name].AvgJCT())
			if name != "hadar" {
				sw.Speedup[name] = append(sw.Speedup[name], cmp.Speedup(name, "hadar", (*metrics.Report).AvgJCT))
			}
		}
	}
	return sw, nil
}

// String renders mean avg-JCT and speedups with 95% bootstrap CIs.
func (sw *SeedSweep) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Seed sweep (%d seeds, 95%% bootstrap CIs)\n", len(sw.Seeds))
	fmt.Fprintf(&sb, "%-12s %14s %24s\n", "scheduler", "avgJCT(h)", "CI")
	for _, name := range sw.Order {
		xs := sw.AvgJCT[name]
		lo, hi := stats.BootstrapCI(xs, 0.95, 2000, 1)
		fmt.Fprintf(&sb, "%-12s %14.2f %24s\n", name,
			stats.Mean(xs)/3600, fmt.Sprintf("[%.2f, %.2f]", lo/3600, hi/3600))
	}
	for _, base := range without(sw.Order, "hadar") {
		xs, ok := sw.Speedup[base]
		if !ok {
			continue
		}
		lo, hi := stats.BootstrapCI(xs, 0.95, 2000, 1)
		fmt.Fprintf(&sb, "Hadar speedup vs %-9s: %.2fx [%.2f, %.2f]\n",
			base, stats.Mean(xs), lo, hi)
	}
	return sb.String()
}
