package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Setup parameterizes the evaluation scale. DefaultSetup matches the
// paper (480 jobs, 60 GPUs, 6-minute rounds); tests and quick runs use
// smaller NumJobs.
type Setup struct {
	NumJobs     int
	Seed        int64
	RoundLength float64
	// Rate is the Poisson arrival rate (jobs/second) for continuous
	// traces.
	Rate float64
}

// DefaultSetup returns the paper's simulation scale.
func DefaultSetup() Setup {
	return Setup{
		NumJobs:     480,
		Seed:        1,
		RoundLength: checkpoint.RoundSeconds,
		Rate:        480.0 / (7 * 3600),
	}
}

func (s Setup) simOptions() sim.Options {
	o := sim.DefaultOptions()
	o.RoundLength = s.RoundLength
	return o
}

// jobs generates the setup's trace: every job arriving at t=0 for rate
// 0, Poisson arrivals at rate jobs/second otherwise.
func (s Setup) jobs(rate float64) ([]*job.Job, error) {
	cfg := trace.DefaultConfig()
	cfg.NumJobs = s.NumJobs
	cfg.Seed = s.Seed
	if rate > 0 {
		cfg.Pattern, cfg.Rate = trace.Poisson, rate
	}
	return trace.Generate(cfg)
}

// Fig3Result holds the Fig. 3 experiment: the cumulative fraction of
// jobs completed along the timeline for all four schedulers, in the
// static or continuous arrival setting.
type Fig3Result struct {
	Arrival string
	Cmp     *Comparison
}

// Fig3 runs the JCT experiment for one arrival pattern ("static" or
// "continuous"): Hadar vs Gavel vs Tiresias vs YARN-CS.
func Fig3(setup Setup, continuous bool) (*Fig3Result, error) {
	arrival, rate := "static", 0.0
	if continuous {
		arrival, rate = "continuous", setup.Rate
	}
	jobs, err := setup.jobs(rate)
	if err != nil {
		return nil, err
	}
	c := SimCluster()
	scheds := []sched.Scheduler{NewHadar(), NewGavel(), NewTiresias(), NewYARNCS()}
	cmp, err := RunComparison(c, jobs, scheds, setup.simOptions())
	if err != nil {
		return nil, err
	}
	return &Fig3Result{Arrival: arrival, Cmp: cmp}, nil
}

// String renders the completion CDF sampled at 12 points up to the
// slowest scheduler's makespan, one series per scheduler — the Fig. 3
// curves.
func (f *Fig3Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 3 (%s trace): fraction of jobs completed along the timeline\n", f.Arrival)
	maxSpan := 0.0
	for _, name := range f.Cmp.Order {
		maxSpan = max(maxSpan, f.Cmp.Reports[name].Makespan)
	}
	fmt.Fprintf(&sb, "%-12s", "time(h)")
	for _, name := range f.Cmp.Order {
		fmt.Fprintf(&sb, "%12s", name)
	}
	sb.WriteByte('\n')
	const points = 12
	for i := 1; i <= points; i++ {
		t := maxSpan * float64(i) / points
		fmt.Fprintf(&sb, "%-12.1f", t/3600)
		for _, name := range f.Cmp.Order {
			fmt.Fprintf(&sb, "%12.3f", f.Cmp.Reports[name].CompletionAt(t))
		}
		sb.WriteByte('\n')
	}
	sb.WriteString(f.Cmp.Table())
	for _, base := range without(f.Cmp.Order, "hadar") {
		fmt.Fprintf(&sb, "Hadar avg-JCT speedup vs %-9s: %.2fx (median %.2fx)\n", base,
			f.Cmp.Speedup(base, "hadar", (*metrics.Report).AvgJCT),
			f.Cmp.Speedup(base, "hadar", (*metrics.Report).MedianJCT))
	}
	return sb.String()
}

// Fig4Result holds the cluster-wide GPU utilization comparison.
type Fig4Result struct {
	Cmp *Comparison
}

// Fig4 compares GPU utilization (busy fraction of held GPU time, the
// quantity preemption overheads eat into) across the four schedulers on
// the static trace, with the Table IV per-model checkpoint cost model
// enabled so preemptive schedulers pay realistic save/restore time.
func Fig4(setup Setup) (*Fig4Result, error) {
	jobs, err := setup.jobs(0)
	if err != nil {
		return nil, err
	}
	opts := setup.simOptions()
	opts.UseModelCosts = true
	scheds := []sched.Scheduler{NewHadar(), NewGavel(), NewTiresias(), NewYARNCS()}
	cmp, err := RunComparison(SimCluster(), jobs, scheds, opts)
	if err != nil {
		return nil, err
	}
	return &Fig4Result{Cmp: cmp}, nil
}

// String renders per-scheduler utilization and mid-load occupancy.
func (f *Fig4Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 4: cluster-wide GPU utilization\n")
	fmt.Fprintf(&sb, "%-12s %14s %22s\n", "scheduler", "utilization(%)", "occupancy@halfload(%)")
	for _, name := range f.Cmp.Order {
		r := f.Cmp.Reports[name]
		// Occupancy measured while the cluster is still loaded (until
		// half the jobs finished) so long sparse tails do not dominate.
		finishes := make([]float64, len(r.Jobs))
		for i, j := range r.Jobs {
			finishes[i] = j.Finish
		}
		half := stats.Median(finishes)
		fmt.Fprintf(&sb, "%-12s %14.1f %22.1f\n", name, 100*r.Utilization(), 100*r.OccupancyUntil(half))
	}
	return sb.String()
}

// Fig5Result holds the finish-time fairness comparison.
type Fig5Result struct {
	Cmp *Comparison
}

// Fig5 compares finish-time fairness across Hadar, Gavel and Tiresias
// (the paper omits YARN-CS here): the static comparison without its
// YARN-CS series.
func Fig5(static *Comparison) *Fig5Result {
	return &Fig5Result{Cmp: static.only("hadar", "gavel", "tiresias")}
}

// String renders average and worst-case FTF per scheduler.
func (f *Fig5Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 5: finish-time fairness (lower is better)\n")
	fmt.Fprintf(&sb, "%-12s %10s %10s\n", "scheduler", "avg FTF", "max FTF")
	for _, name := range f.Cmp.Order {
		r := f.Cmp.Reports[name]
		fmt.Fprintf(&sb, "%-12s %10.2f %10.2f\n", name, r.AvgFTF(), r.MaxFTF())
	}
	for _, base := range without(f.Cmp.Order, "hadar") {
		fmt.Fprintf(&sb, "Hadar FTF improvement vs %-9s: %.2fx\n", base, f.Cmp.Speedup(base, "hadar", (*metrics.Report).AvgFTF))
	}
	return sb.String()
}

// Fig6Result holds the makespan comparison.
type Fig6Result struct {
	Cmp *Comparison
}

// Fig6 compares makespan with the scheduling policy "flexibly specified
// towards makespan minimization": Hadar runs with the
// effective-throughput utility on the static trace, against the static
// comparison's Gavel and Tiresias runs.
func Fig6(setup Setup, static *Comparison) (*Fig6Result, error) {
	jobs, err := setup.jobs(0)
	if err != nil {
		return nil, err
	}
	s := NewHadarMakespan()
	r, err := sim.Run(SimCluster(), jobs, s, setup.simOptions())
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", s.Name(), err)
	}
	cmp := static.only("gavel", "tiresias")
	cmp.Order = append([]string{s.Name()}, cmp.Order...)
	cmp.Reports[s.Name()] = r
	return &Fig6Result{Cmp: cmp}, nil
}

// String renders makespans and Hadar's improvement factors.
func (f *Fig6Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 6: makespan under the makespan-minimization objective\n")
	fmt.Fprintf(&sb, "%-18s %14s\n", "scheduler", "makespan(h)")
	for _, name := range f.Cmp.Order {
		fmt.Fprintf(&sb, "%-18s %14.2f\n", name, f.Cmp.Reports[name].Makespan/3600)
	}
	span := func(r *metrics.Report) float64 { return r.Makespan }
	for _, base := range without(f.Cmp.Order, "hadar-makespan") {
		fmt.Fprintf(&sb, "Hadar makespan improvement vs %-9s: %.2fx\n", base, f.Cmp.Speedup(base, "hadar-makespan", span))
	}
	return sb.String()
}

// Fig7Point is one x-value of the scalability experiment.
type Fig7Point struct {
	// Series is "jobs-sweep" (the paper's job-count sweep, Hadar vs
	// Gavel) or "nodes-prop" / "nodes-fixed" (the node-count sweep,
	// Hadar only, so GavelLatency is zero).
	Series       string
	Jobs         int
	Nodes        int
	GPUs         int
	HadarLatency time.Duration
	GavelLatency time.Duration
}

// Fig7Result holds the scheduling-latency scaling sweeps.
type Fig7Result struct {
	Points []Fig7Point
}

// NodeSweep returns the node-count points of Fig. 7 with only Series,
// Nodes and Jobs set. 60 nodes is roughly the paper's testbed scale,
// 5000 a large production cluster. "nodes-prop" grows the queue with
// the cluster (2 pending jobs per node keeps every size oversubscribed:
// 4 GPUs per node, multi-worker gangs); "nodes-fixed" holds the paper's
// 480-job backlog so the node-count term of the round cost is isolated.
func NodeSweep() []Fig7Point {
	nodes := []int{60, 250, 1000, 5000}
	pts := make([]Fig7Point, 0, 2*len(nodes))
	for _, n := range nodes {
		pts = append(pts, Fig7Point{Series: "nodes-prop", Nodes: n, Jobs: 2 * n})
	}
	for _, n := range nodes {
		pts = append(pts, Fig7Point{Series: "nodes-fixed", Nodes: n, Jobs: 480})
	}
	return pts
}

// Fig7 measures the wall time of one scheduling decision. The
// "jobs-sweep" series times Hadar and Gavel as the number of active
// jobs grows from 32 to maxJobs (2048 in the paper), with the cluster
// scaled proportionally; the NodeSweep series then time Hadar alone on
// ScaleCluster.
func Fig7(seed int64, maxJobs int) (*Fig7Result, error) {
	res := &Fig7Result{}
	measure := func(p Fig7Point, c *cluster.Cluster) error {
		ctx, err := RoundContext(c, p.Jobs, seed)
		if err != nil {
			return err
		}
		p.Nodes, p.GPUs = c.NumNodes(), c.TotalGPUs()
		p.HadarLatency = timeDecision(NewHadar, ctx)
		if p.Series == "jobs-sweep" {
			p.GavelLatency = timeDecision(NewGavel, ctx)
		}
		res.Points = append(res.Points, p)
		return nil
	}
	for jobs := 32; jobs <= maxJobs; jobs *= 2 {
		if err := measure(Fig7Point{Series: "jobs-sweep", Jobs: jobs}, ScaledSimCluster(max(jobs/24, 4))); err != nil {
			return nil, err
		}
	}
	for _, p := range NodeSweep() {
		if err := measure(p, ScaleCluster(p.Nodes)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// timeDecision is the best of three decisions on ctx, each by a fresh
// scheduler: the decision for a workload the scheduler has not seen.
// Repeating the call on one scheduler would time its caches instead —
// Gavel's LP solution, kept while the class histogram holds, and
// Hadar's carried queue order and arenas.
func timeDecision(newSched func() sched.Scheduler, ctx *sched.Context) time.Duration {
	const reps = 3
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		s := newSched()
		start := time.Now()
		s.Schedule(ctx)
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}

// Sweep returns the points of one series in sweep order.
func (f *Fig7Result) Sweep(series string) []Fig7Point {
	var pts []Fig7Point
	for _, p := range f.Points {
		if p.Series == series {
			pts = append(pts, p)
		}
	}
	return pts
}

// String renders the latency-vs-jobs series, then the node-count sweep.
func (f *Fig7Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 7: scheduling decision latency vs active jobs\n")
	fmt.Fprintf(&sb, "%8s %8s %14s %14s\n", "jobs", "GPUs", "hadar", "gavel")
	for _, p := range f.Sweep("jobs-sweep") {
		fmt.Fprintf(&sb, "%8d %8d %14s %14s\n", p.Jobs, p.GPUs, p.HadarLatency, p.GavelLatency)
	}
	sb.WriteString("Hadar round latency vs nodes\n")
	fmt.Fprintf(&sb, "%12s %8s %8s %14s\n", "series", "nodes", "jobs", "hadar")
	for _, p := range f.Points {
		if p.Series != "jobs-sweep" {
			fmt.Fprintf(&sb, "%12s %8d %8d %14s\n", p.Series, p.Nodes, p.Jobs, p.HadarLatency)
		}
	}
	return sb.String()
}

// Fig8Point is one arrival rate's JCT band for one scheduler.
type Fig8Point struct {
	RatePerHour float64
	Scheduler   string
	MinJCT      float64
	AvgJCT      float64
	MaxJCT      float64
}

// Fig8Result holds the min/avg/max JCT sweep over input job rates.
type Fig8Result struct {
	Points []Fig8Point
}

// Fig8 sweeps the Poisson arrival rate and reports each scheduler's
// minimum, average and maximum JCT — the paper's robustness-under-load
// comparison. Rates run in parallel across cores.
func Fig8(setup Setup, ratesPerHour []float64) (*Fig8Result, error) {
	perRate, err := parallel.Map(0, ratesPerHour, func(rate float64) ([]Fig8Point, error) {
		jobs, err := setup.jobs(rate / 3600)
		if err != nil {
			return nil, err
		}
		scheds := []sched.Scheduler{NewHadar(), NewGavel(), NewTiresias()}
		cmp, err := RunComparison(SimCluster(), jobs, scheds, setup.simOptions())
		if err != nil {
			return nil, err
		}
		var pts []Fig8Point
		for _, name := range cmp.Order {
			r := cmp.Reports[name]
			pts = append(pts, Fig8Point{
				RatePerHour: rate, Scheduler: name,
				MinJCT: r.MinJCT(), AvgJCT: r.AvgJCT(), MaxJCT: r.MaxJCT(),
			})
		}
		return pts, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{}
	for _, pts := range perRate {
		res.Points = append(res.Points, pts...)
	}
	return res, nil
}

// String renders the JCT bands per rate and scheduler.
func (f *Fig8Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 8: JCT range vs input job rate\n")
	fmt.Fprintf(&sb, "%12s %-12s %10s %10s %10s %10s\n",
		"rate(j/h)", "scheduler", "min(h)", "avg(h)", "max(h)", "range(h)")
	for _, p := range f.Points {
		fmt.Fprintf(&sb, "%12.1f %-12s %10.2f %10.2f %10.2f %10.2f\n",
			p.RatePerHour, p.Scheduler, p.MinJCT/3600, p.AvgJCT/3600, p.MaxJCT/3600,
			(p.MaxJCT-p.MinJCT)/3600)
	}
	return sb.String()
}

// Fig9Point is one (round length, rate) cell of the round-length sweep.
type Fig9Point struct {
	RoundMinutes float64
	RatePerHour  float64
	AvgJCT       float64
}

// Fig9Result holds Hadar's avg JCT across round lengths and loads.
// The points run row by row: one row per round length, each holding
// every rate in the same order.
type Fig9Result struct {
	Points []Fig9Point
}

// Fig9 sweeps the scheduling round length (6 to 48 minutes in the
// paper) under increasing input job rates, for Hadar only.
func Fig9(setup Setup, roundMinutes, ratesPerHour []float64) (*Fig9Result, error) {
	type cell struct{ rm, rate float64 }
	var cells []cell
	for _, rm := range roundMinutes {
		for _, rate := range ratesPerHour {
			cells = append(cells, cell{rm: rm, rate: rate})
		}
	}
	points, err := parallel.Map(0, cells, func(c cell) (Fig9Point, error) {
		jobs, err := setup.jobs(c.rate / 3600)
		if err != nil {
			return Fig9Point{}, err
		}
		opts := setup.simOptions()
		opts.RoundLength = c.rm * 60
		r, err := sim.Run(SimCluster(), jobs, NewHadar(), opts)
		if err != nil {
			return Fig9Point{}, err
		}
		return Fig9Point{RoundMinutes: c.rm, RatePerHour: c.rate, AvgJCT: r.AvgJCT()}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig9Result{Points: points}, nil
}

// String renders the avg-JCT grid, one row per round length.
func (f *Fig9Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 9: impact of round length on Hadar's average JCT (hours)\n")
	var rates []float64
	seen := map[float64]bool{}
	for _, p := range f.Points {
		if !seen[p.RatePerHour] {
			seen[p.RatePerHour] = true
			rates = append(rates, p.RatePerHour)
		}
	}
	fmt.Fprintf(&sb, "%14s", "round(min)")
	for _, r := range rates {
		fmt.Fprintf(&sb, "%12.1f", r)
	}
	sb.WriteString("  <- rate (jobs/h)")
	for i, p := range f.Points {
		if i%len(rates) == 0 {
			fmt.Fprintf(&sb, "\n%14.0f", p.RoundMinutes)
		}
		fmt.Fprintf(&sb, "%12.2f", p.AvgJCT/3600)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// Table3Result holds the prototype-cluster experiment: JCT and makespan
// on the 8-GPU AWS-like configuration, in both the "physical" (per-model
// Table IV checkpoint costs) and "simulated" (flat 10 s delay) modes.
type Table3Result struct {
	Physical  *Comparison
	Simulated *Comparison
}

// Table3 runs the 10-job prototype workload on the physical-cluster
// configuration with Hadar, Gavel, and Tiresias.
func Table3(seed int64) (*Table3Result, error) {
	c := PhysicalCluster()
	jobs := trace.PrototypeWorkload(seed)
	scheds := func() []sched.Scheduler {
		return []sched.Scheduler{NewHadar(), NewGavel(), NewTiresias()}
	}
	optsPhys := sim.DefaultOptions()
	optsPhys.UseModelCosts = true
	phys, err := RunComparison(c, jobs, scheds(), optsPhys)
	if err != nil {
		return nil, err
	}
	simulated, err := RunComparison(c, jobs, scheds(), sim.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &Table3Result{Physical: phys, Simulated: simulated}, nil
}

// String renders the Table III layout: rows = cluster mode x metric,
// columns = schedulers.
func (t *Table3Result) String() string {
	var sb strings.Builder
	sb.WriteString("Table III: JCT and makespan on the 8-GPU prototype configuration\n")
	fmt.Fprintf(&sb, "%-10s %-10s %10s %10s %10s\n", "cluster", "metric", "hadar", "gavel", "tiresias")
	rows := []struct {
		label string
		cmp   *Comparison
	}{{"physical", t.Physical}, {"simulated", t.Simulated}}
	for _, row := range rows {
		fmt.Fprintf(&sb, "%-10s %-10s %10.2f %10.2f %10.2f\n", row.label, "JCT(h)",
			row.cmp.Reports["hadar"].AvgJCT()/3600,
			row.cmp.Reports["gavel"].AvgJCT()/3600,
			row.cmp.Reports["tiresias"].AvgJCT()/3600)
		fmt.Fprintf(&sb, "%-10s %-10s %10.2f %10.2f %10.2f\n", row.label, "makespan(h)",
			row.cmp.Reports["hadar"].Makespan/3600,
			row.cmp.Reports["gavel"].Makespan/3600,
			row.cmp.Reports["tiresias"].Makespan/3600)
	}
	return sb.String()
}

// Fig10Result holds the prototype-cluster GPU utilization comparison:
// Table III's physical-mode runs.
type Fig10Result struct {
	Cmp *Comparison
}

// String renders utilization per scheduler.
func (f *Fig10Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig. 10: GPU utilization on the prototype cluster\n")
	fmt.Fprintf(&sb, "%-12s %14s\n", "scheduler", "utilization(%)")
	for _, name := range f.Cmp.Order {
		fmt.Fprintf(&sb, "%-12s %14.1f\n", name, 100*f.Cmp.Reports[name].Utilization())
	}
	return sb.String()
}

// Table4Result reproduces the preemption-overhead table directly from
// the checkpoint cost model.
type Table4Result struct {
	RoundSeconds float64
}

// Table4 returns the preemption-overhead table at the given round
// length (360 s in the paper).
func Table4(roundSeconds float64) *Table4Result {
	return &Table4Result{RoundSeconds: roundSeconds}
}

// String renders Table IV.
func (t *Table4Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table IV: preemption overhead per %v-minute round\n", t.RoundSeconds/60)
	fmt.Fprintf(&sb, "%-14s %18s %18s\n", "model", "w/ realloc(%)", "w/o realloc(%)")
	for _, m := range checkpoint.Models() {
		fmt.Fprintf(&sb, "%-14s %18.2f %18.2f\n", m,
			100*checkpoint.Overhead(m, t.RoundSeconds, true),
			100*checkpoint.Overhead(m, t.RoundSeconds, false))
	}
	return sb.String()
}
