package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Verdict grades one scorecard row against the paper.
type Verdict string

// The verdicts grade returns.
const (
	Meets     Verdict = "meets"     // the rule holds and the measured value reaches the paper's
	Direction Verdict = "direction" // the rule holds; the value falls short of the paper's, or the paper gives none
	Differs   Verdict = "differs"   // a documented deviation: the rule checks only what this repository holds
	Fails     Verdict = "FAILS"     // the rule does not hold
)

// grade computes every row's verdict. measured, paper and bound are
// oriented so that higher is better (a lower-is-better row negates all
// three); the rule is measured >= bound, and paper is NaN where the
// paper gives no value. deviation marks a documented deviation.
func grade(measured, paper, bound float64, deviation bool) Verdict {
	switch {
	case !(measured >= bound):
		return Fails
	case deviation:
		return Differs
	case measured >= paper:
		return Meets
	}
	return Direction
}

// Row is one claim of the paper's evaluation, as text, and the verdict
// grade computed from its numbers.
type Row struct {
	ID, Claim, Paper, Measured, Rule string
	Verdict                          Verdict
}

// Scorecard is the claims ledger: the paper's headline claims and the
// design ablations, one rule each.
type Scorecard struct {
	Rows []Row
}

// Figures holds the results the headline rows read, the ones
// `experiments -all` computes anyway.
type Figures struct {
	Motivation         *MotivationResult
	Static, Continuous *Fig3Result
	Fig4               *Fig4Result
	Fig5               *Fig5Result
	Fig6               *Fig6Result
	Fig7               *Fig7Result
	Table3             *Table3Result
	Federation         *FedCompareResult
}

// NewScorecard grades the headline rows from figs, then runs the design
// ablations (DESIGN §5) at their fixed reduced scale and grades those.
func NewScorecard(figs Figures) (*Scorecard, error) {
	abl, err := ablations()
	if err != nil {
		return nil, err
	}
	return &Scorecard{Rows: append(headline(figs), abl...)}, nil
}

// Failed returns the rows whose rule does not hold.
func (s *Scorecard) Failed() []Row {
	var bad []Row
	for _, r := range s.Rows {
		if r.Verdict == Fails {
			bad = append(bad, r)
		}
	}
	return bad
}

// Table returns a header and one record per row: the CSV's records and
// the Markdown table's cells.
func (s *Scorecard) Table() [][]string {
	out := [][]string{{"id", "claim", "paper", "measured", "rule", "verdict"}}
	for _, r := range s.Rows {
		out = append(out, []string{r.ID, r.Claim, r.Paper, r.Measured, r.Rule, string(r.Verdict)})
	}
	return out
}

// String renders the scorecard as the Markdown table EXPERIMENTS.md
// embeds.
func (s *Scorecard) String() string { return markdown(s.Table()) }

// markdown renders records, the first being the header, as a Markdown
// table.
func markdown(records [][]string) string {
	var sb strings.Builder
	for i, rec := range records {
		sb.WriteString("| " + strings.Join(rec, " | ") + " |\n")
		if i == 0 {
			sb.WriteString(strings.Repeat("|---", len(rec)) + "|\n")
		}
	}
	return sb.String()
}

// factor is a row for an improvement factor, higher is better.
func factor(id, claim string, paper, measured, bound float64) Row {
	p := "—"
	if !math.IsNaN(paper) {
		p = fmt.Sprintf("%gx", paper)
	}
	return Row{ID: id, Claim: claim, Paper: p, Measured: fmt.Sprintf("%.3fx", measured),
		Rule: fmt.Sprintf("≥ %gx", bound), Verdict: grade(measured, paper, bound, false)}
}

// headline grades the paper's headline claims. A factor's bound is the
// paper's value where this repository reaches it at 96 and 480 jobs,
// else a round number under both, never below 1 (the paper's direction).
func headline(f Figures) []Row {
	avg, med, ftf := (*metrics.Report).AvgJCT, (*metrics.Report).MedianJCT, (*metrics.Report).AvgFTF
	span := func(r *metrics.Report) float64 { return r.Makespan }
	st, co, f5, f6 := f.Static.Cmp, f.Continuous.Cmp, f.Fig5.Cmp, f.Fig6.Cmp
	util := func(name string) float64 { return 100 * f.Fig4.Cmp.Reports[name].Utilization() }
	yarn, hadar, tir, gav := util("yarn-cs"), util("hadar"), util("tiresias"), util("gavel")
	faster, sweep := 0, f.Fig7.Sweep("jobs-sweep")
	for _, p := range sweep {
		if p.HadarLatency < p.GavelLatency {
			faster++
		}
	}
	hr, gr := 100*st.Reports["hadar"].ReallocationFraction(), 100*st.Reports["gavel"].ReallocationFraction()
	phys, simu := f.Table3.Physical.Reports["hadar"].AvgJCT(), f.Table3.Simulated.Reports["hadar"].AvgJCT()
	div, gain := 100*math.Abs(phys-simu)/simu, f.Motivation.Gain()
	return []Row{
		factor("fig3a-avg-jct-gavel", "avg JCT vs Gavel, static", 1.8, st.Speedup("gavel", "hadar", avg), 1.1),
		factor("fig3a-median-jct-gavel", "median JCT vs Gavel, static", 2.1, st.Speedup("gavel", "hadar", med), 2.1),
		factor("fig3a-avg-jct-tiresias", "avg JCT vs Tiresias, static", 2.5, st.Speedup("tiresias", "hadar", avg), 1.2),
		factor("fig3a-avg-jct-yarn", "avg JCT vs YARN-CS, static", 7, st.Speedup("yarn-cs", "hadar", avg), 2.5),
		factor("fig3a-median-jct-yarn", "median JCT vs YARN-CS, static", 15, st.Speedup("yarn-cs", "hadar", med), 5),
		factor("fig3b-avg-jct-gavel", "avg JCT vs Gavel, continuous", 1.5, co.Speedup("gavel", "hadar", avg), 1.1),
		factor("fig3b-avg-jct-tiresias", "avg JCT vs Tiresias, continuous", 2.3, co.Speedup("tiresias", "hadar", avg), 1.2),
		factor("fig3b-avg-jct-yarn", "avg JCT vs YARN-CS, continuous", 5, co.Speedup("yarn-cs", "hadar", avg), 2),
		factor("fig5-ftf-gavel", "FTF vs Gavel", 1.5, f5.Speedup("gavel", "hadar", ftf), 1.5),
		factor("fig5-ftf-tiresias", "FTF vs Tiresias", 1.8, f5.Speedup("tiresias", "hadar", ftf), 1.8),
		factor("fig6-makespan-gavel", "makespan vs Gavel, makespan objective", 1.5, f6.Speedup("gavel", "hadar-makespan", span), 1),
		factor("fig6-makespan-tiresias", "makespan vs Tiresias, makespan objective", 2, f6.Speedup("tiresias", "hadar-makespan", span), 1.1),
		{ID: "fig4-utilization-order", Claim: "GPU utilization: YARN-CS highest, Hadar close, Gavel and Tiresias lower",
			Paper: "ordering", Measured: fmt.Sprintf("YARN-CS %.2f, Hadar %.2f, Tiresias %.2f, Gavel %.2f %%", yarn, hadar, tir, gav),
			Rule: "YARN-CS ≥ Hadar ≥ Tiresias, Gavel", Verdict: grade(math.Min(yarn-hadar, hadar-math.Max(tir, gav)), 0, 0, false)},
		{ID: "fig7-latency-vs-gavel", Claim: "decision latency scales comparably to Gavel up to 2048 jobs",
			Paper: "< 7 min per round", Measured: fmt.Sprintf("Hadar faster at %d of %d sweep points", faster, len(sweep)),
			Rule: "faster at every point", Verdict: grade(float64(faster), float64(len(sweep)), float64(len(sweep)), false)},
		{ID: "fig3a-realloc-rate", Claim: "~30% of rounds change an average job's allocation",
			Paper: "30%", Measured: fmt.Sprintf("Hadar %.1f%%, Gavel %.1f%%", hr, gr),
			Rule: "Hadar ≤ Gavel", Verdict: grade(-hr, -30, -gr, true)},
		{ID: "table3-sim-divergence", Claim: "simulated and prototype JCT agree (Table III)",
			Paper: "< 10%", Measured: fmt.Sprintf("%.2f%%", div), Rule: "≤ 10%", Verdict: grade(-div, -10, -10, false)},
		{ID: "motivation-jct-gain", Claim: "§II.A example: avg JCT gain over Gavel",
			Paper: "20%", Measured: fmt.Sprintf("%.1f%%", gain), Rule: "≥ 20%", Verdict: grade(gain, 20, 20, false)},
		factor("fed-pooled-vs-split", "pooled GPU types under one Hadar beat one member per type: best split router / pooled avg JCT, continuous",
			math.NaN(), f.Federation.PooledGain(), 1.25),
	}
}

// ablationRun is one Hadar variant of the design ablations: the default
// core and sim options, edited by edit when it is set.
type ablationRun struct {
	clus *cluster.Cluster
	cfg  trace.Config
	edit func(*core.Options, *sim.Options)
}

// ablations runs the design ablations of DESIGN §5, one row each. The
// paper reports none of them, so a row that holds reads "direction".
func ablations() ([]Row, error) {
	jobs := func(n int) trace.Config {
		cfg := trace.DefaultConfig()
		cfg.NumJobs = n
		return cfg
	}
	// 8-worker gangs exceed every single-type pool of this cluster (6
	// V100, 6 P100, 8 K80): a job-level scheduler must crawl on the K80s,
	// a task-level one can straddle V100 and P100 — the paper's
	// motivating case.
	gangClus := cluster.New(gpu.Fleet{gpu.V100: 3}, gpu.Fleet{gpu.V100: 3},
		gpu.Fleet{gpu.P100: 3}, gpu.Fleet{gpu.P100: 3}, gpu.Fleet{gpu.K80: 4}, gpu.Fleet{gpu.K80: 4})
	gangs := jobs(24)
	gangs.WorkerChoices, gangs.WorkerWeights = []int{2, 8}, []float64{0.5, 0.5}
	runs := []ablationRun{
		0:  {gangClus, gangs, nil},
		1:  {gangClus, gangs, func(o *core.Options, _ *sim.Options) { o.TaskLevel = false }},
		2:  {SimCluster(), jobs(16), func(o *core.Options, _ *sim.Options) { o.DPJobLimit = 64 }},
		3:  {SimCluster(), jobs(16), func(o *core.Options, _ *sim.Options) { o.DPJobLimit = 0 }},
		4:  {SimCluster(), jobs(32), nil}, // exponential price, comm cost 0.1, exact completions
		5:  {SimCluster(), jobs(32), func(o *core.Options, _ *sim.Options) { o.ExponentialPrice = false }},
		6:  {SimCluster(), jobs(32), func(o *core.Options, _ *sim.Options) { o.CommCost = 0 }},
		7:  {SimCluster(), jobs(32), func(o *core.Options, _ *sim.Options) { o.CommCost = 0.5 }},
		8:  {SimCluster(), jobs(32), func(_ *core.Options, o *sim.Options) { o.QuantizeCompletions = true }},
		9:  {SimCluster(), jobs(32), func(_ *core.Options, o *sim.Options) { o.UseModelCosts = true }},
		10: {SimCluster(), jobs(32), func(_ *core.Options, o *sim.Options) { o.UseModelCosts, o.CheckpointContention = true, true }},
	}
	reports, err := parallel.Map(0, runs, func(a ablationRun) (*metrics.Report, error) {
		opts, simOpts := core.DefaultOptions(), sim.DefaultOptions()
		if a.edit != nil {
			a.edit(&opts, &simOpts)
		}
		js, err := trace.Generate(a.cfg)
		if err != nil {
			return nil, err
		}
		return sim.Run(a.clus, js, core.New(opts), simOpts)
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation: %w", err)
	}
	h := func(i int) float64 { return reports[i].AvgJCT() / 3600 }
	none := math.NaN()
	spread := math.Max(h(6), math.Max(h(4), h(7))) / math.Min(h(6), math.Min(h(4), h(7)))
	return []Row{
		factor("ablation-task-level", "task-level gangs beat job-level ones when gangs exceed every single-type pool: job-level / task-level avg JCT",
			none, h(1)/h(0), 1.2),
		{ID: "ablation-dp-greedy", Claim: "the greedy fallback loses no avg JCT to the exact DP",
			Paper: "—", Measured: fmt.Sprintf("DP %.2f h, greedy %.2f h", h(2), h(3)),
			Rule: "greedy ≤ 1.05 × DP", Verdict: grade(-h(3)/h(2), none, -1.05, false)},
		factor("ablation-price", "the exponential price (Eq. 5) beats a linear one: linear / exponential avg JCT",
			none, h(5)/h(4), 1.05),
		{ID: "ablation-comm-cost", Claim: "avg JCT does not depend on the communication surcharge (0, 0.1, 0.5)",
			Paper: "—", Measured: fmt.Sprintf("%.2f, %.2f, %.2f h", h(6), h(4), h(7)),
			Rule: "max ≤ 1.05 × min", Verdict: grade(-spread, none, -1.05, false)},
		{ID: "ablation-quantized", Claim: "round-quantized completions inflate avg JCT over exact ones",
			Paper: "—", Measured: fmt.Sprintf("%+.1f min", 60*(h(8)-h(4))),
			Rule: "≥ 0 min", Verdict: grade(h(8)-h(4), none, 0, false)},
		{ID: "ablation-contention", Claim: "shared checkpoint storage never shortens avg JCT",
			Paper: "—", Measured: fmt.Sprintf("%.2f → %.2f h", h(9), h(10)),
			Rule: "shared ≥ dedicated", Verdict: grade(h(10)-h(9), none, 0, false)},
	}, nil
}
