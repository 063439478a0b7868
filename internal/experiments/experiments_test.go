package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestSimClusterMatchesPaper(t *testing.T) {
	c := SimCluster()
	if c.NumNodes() != 15 {
		t.Errorf("NumNodes = %d, want 15", c.NumNodes())
	}
	for _, typ := range []gpu.Type{gpu.V100, gpu.P100, gpu.K80} {
		if got := cluster.NewState(c).CapacityOfType(typ); got != 20 {
			t.Errorf("CapacityOfType(%v) = %d, want 20", typ, got)
		}
	}
}

func TestPhysicalClusterMatchesPaper(t *testing.T) {
	c := PhysicalCluster()
	if c.TotalGPUs() != 8 {
		t.Errorf("TotalGPUs = %d, want 8", c.TotalGPUs())
	}
	want := map[gpu.Type]int{gpu.T4: 2, gpu.K520: 2, gpu.K80: 2, gpu.V100: 2}
	for typ, n := range want {
		if got := cluster.NewState(c).CapacityOfType(typ); got != n {
			t.Errorf("CapacityOfType(%v) = %d, want %d", typ, got, n)
		}
	}
}

func TestScaledSimClusterProportions(t *testing.T) {
	c := ScaledSimCluster(12)
	for _, typ := range []gpu.Type{gpu.V100, gpu.P100, gpu.K80} {
		if got := cluster.NewState(c).CapacityOfType(typ); got != 12 {
			t.Errorf("CapacityOfType(%v) = %d, want 12", typ, got)
		}
	}
	// Non-multiple of 4 still lands exactly.
	c = ScaledSimCluster(6)
	if cluster.NewState(c).CapacityOfType(gpu.V100) != 6 {
		t.Errorf("scaled(6) V100 = %d", cluster.NewState(c).CapacityOfType(gpu.V100))
	}
}

func TestMotivationReproducesTaskLevelWin(t *testing.T) {
	res, err := Motivation()
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports ~20%; our reconstruction gives ~28%. Require a
	// clear double-digit win.
	if gain := res.Gain(); gain < 10 {
		t.Errorf("Hadar improvement over Gavel = %.1f%%, want >= 10%%", gain)
	}
	if !strings.Contains(res.String(), "improvement") {
		t.Error("rendered result missing improvement line")
	}
}

func TestMotivationJobsValid(t *testing.T) {
	for _, j := range MotivationJobs() {
		if err := j.Validate(); err != nil {
			t.Error(err)
		}
	}
	if MotivationCluster().TotalGPUs() != 6 {
		t.Error("motivation cluster is not 6 GPUs")
	}
}

func smallSetup() Setup {
	s := DefaultSetup()
	s.NumJobs = 24
	return s
}

func TestFig3SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res, err := Fig3(smallSetup(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cmp.Order) != 4 {
		t.Fatalf("expected 4 schedulers, got %v", res.Cmp.Order)
	}
	out := res.String()
	for _, frag := range []string{"hadar", "gavel", "tiresias", "yarn-cs", "speedup"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Fig3 output missing %q", frag)
		}
	}
	// Every scheduler finished every job.
	for name, r := range res.Cmp.Reports {
		if len(r.Jobs) != 24 {
			t.Errorf("%s completed %d of 24 jobs", name, len(r.Jobs))
		}
		if r.CompletionAt(r.Makespan) != 1 {
			t.Errorf("%s CDF does not reach 1", name)
		}
	}
}

func TestFig3ContinuousSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res, err := Fig3(smallSetup(), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrival != "continuous" {
		t.Errorf("arrival label = %q", res.Arrival)
	}
}

func TestFig5And6SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	e := NewEval(smallSetup(), 32)
	f5, err := get[*Fig5Result](e, "5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f5.String(), "FTF") {
		t.Error("Fig5 output missing FTF")
	}
	f6, err := get[*Fig6Result](e, "6")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f6.Cmp.Reports["hadar-makespan"]; !ok {
		t.Error("Fig6 did not run the makespan-objective Hadar")
	}
}

func TestFig7LatencyGrowsWithScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res, err := Fig7(1, 128)
	if err != nil {
		t.Fatal(err)
	}
	jobs := res.Sweep("jobs-sweep")
	if len(jobs) != 3 { // 32, 64, 128
		t.Fatalf("jobs-sweep points = %d, want 3", len(jobs))
	}
	for _, p := range jobs {
		if p.HadarLatency <= 0 || p.GavelLatency <= 0 {
			t.Errorf("non-positive latency at %d jobs", p.Jobs)
		}
	}
	prop, fixed := res.Sweep("nodes-prop"), res.Sweep("nodes-fixed")
	if len(prop) != 4 || len(fixed) != 4 || len(res.Points) != 3+4+4 {
		t.Fatalf("node sweep: %d prop, %d fixed of %d points, want 4, 4 of 11", len(prop), len(fixed), len(res.Points))
	}
	for i, p := range append(prop, fixed...) {
		wantJobs := 480
		if i < len(prop) {
			wantJobs = 2 * p.Nodes
		}
		if p.Jobs != wantJobs || p.GPUs != 4*p.Nodes {
			t.Errorf("%s point %d nodes: %d jobs, %d GPUs, want %d jobs, %d GPUs", p.Series, p.Nodes, p.Jobs, p.GPUs, wantJobs, 4*p.Nodes)
		}
		if p.HadarLatency <= 0 || p.GavelLatency != 0 {
			t.Errorf("%s at %d nodes: hadar %v, gavel %v, want positive and none", p.Series, p.Nodes, p.HadarLatency, p.GavelLatency)
		}
	}
	out := res.String()
	for _, p := range jobs {
		if !strings.Contains(out, fmt.Sprintf("%8d %8d", p.Jobs, p.GPUs)) {
			t.Errorf("String() lacks the %d-job row:\n%s", p.Jobs, out)
		}
	}
}

func TestFig9LongerRoundsHurt(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	setup := smallSetup()
	res, err := Fig9(setup, []float64{6, 48}, []float64{40})
	if err != nil {
		t.Fatal(err)
	}
	var short, long float64
	for _, p := range res.Points {
		if p.RoundMinutes == 6 {
			short = p.AvgJCT
		}
		if p.RoundMinutes == 48 {
			long = p.AvgJCT
		}
	}
	if !(long > short) {
		t.Errorf("48-min rounds (%.0fs) not worse than 6-min rounds (%.0fs)", long, short)
	}
}

func TestTable3PhysicalVsSimulatedClose(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res, err := Table3(7)
	if err != nil {
		t.Fatal(err)
	}
	hp := res.Physical.Reports["hadar"].AvgJCT()
	hs := res.Simulated.Reports["hadar"].AvgJCT()
	div := (hp - hs) / hs
	if div < 0 {
		div = -div
	}
	// The paper reports <10% divergence between prototype and simulator.
	if div > 0.10 {
		t.Errorf("physical vs simulated JCT divergence = %.1f%%, want <= 10%%", 100*div)
	}
	// Hadar beats both baselines on JCT in both modes.
	for _, cmp := range []*Comparison{res.Physical, res.Simulated} {
		h := cmp.Reports["hadar"].AvgJCT()
		if h >= cmp.Reports["gavel"].AvgJCT() || h >= cmp.Reports["tiresias"].AvgJCT() {
			t.Errorf("Hadar did not win JCT: %v", cmp.Table())
		}
	}
}

func TestTable4RendersAllModels(t *testing.T) {
	out := Table4(360).String()
	for _, m := range []string{"ResNet-50", "ResNet-18", "LSTM", "CycleGAN", "Transformer"} {
		if !strings.Contains(out, m) {
			t.Errorf("Table4 missing %s", m)
		}
	}
}

func TestComparisonHelpers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	c := SimCluster()
	cfg := trace.DefaultConfig()
	cfg.NumJobs = 12
	jobs, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := RunComparison(c, jobs,
		[]sched.Scheduler{NewHadar(), NewGavel()}, sim.ValidatedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(cmp.Order, ","); got != "hadar,gavel" {
		t.Errorf("Order = %s, want input order hadar,gavel", got)
	}
	if got := without(cmp.Order, "hadar"); len(got) != 1 || got[0] != "gavel" {
		t.Errorf("baselines = %v, want [gavel]", got)
	}
	if !strings.Contains(cmp.Table(), "avgJCT") {
		t.Error("Table header missing")
	}
}

func TestSeedSweepAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	setup := smallSetup()
	sw, err := SweepSeeds(setup, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Seeds) != 3 {
		t.Fatalf("seeds = %v", sw.Seeds)
	}
	for _, name := range sw.Order {
		if len(sw.AvgJCT[name]) != 3 {
			t.Errorf("%s has %d samples", name, len(sw.AvgJCT[name]))
		}
	}
	// Hadar must beat every baseline on the mean across seeds.
	for _, base := range []string{"gavel", "tiresias", "yarn-cs"} {
		xs := sw.Speedup[base]
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		if mean <= 1 {
			t.Errorf("mean speedup vs %s = %.2f, want > 1", base, mean)
		}
	}
	out := sw.String()
	if !strings.Contains(out, "bootstrap") || !strings.Contains(out, "speedup") {
		t.Errorf("summary malformed:\n%s", out)
	}
}

func TestSeedSweepValidation(t *testing.T) {
	if _, err := SweepSeeds(smallSetup(), 0); err == nil {
		t.Error("zero seed count accepted")
	}
}

func TestFig4SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res, err := Fig4(smallSetup())
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	if !strings.Contains(out, "utilization") {
		t.Errorf("Fig4 output malformed:\n%s", out)
	}
	for _, name := range res.Cmp.Order {
		u := res.Cmp.Reports[name].Utilization()
		if u <= 0 || u > 1 {
			t.Errorf("%s utilization %v out of (0,1]", name, u)
		}
	}
}

func TestFig8SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res, err := Fig8(smallSetup(), []float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 { // 2 rates x 3 schedulers
		t.Fatalf("points = %d, want 6", len(res.Points))
	}
	for _, p := range res.Points {
		if !(p.MinJCT <= p.AvgJCT && p.AvgJCT <= p.MaxJCT) {
			t.Errorf("JCT band unordered: %+v", p)
		}
	}
	if !strings.Contains(res.String(), "rate") {
		t.Error("Fig8 output malformed")
	}
}

func TestFig10SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	setup := smallSetup()
	setup.Seed = 7
	res, err := get[*Fig10Result](NewEval(setup, 32), "10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cmp.Order) != 3 {
		t.Fatalf("schedulers = %v", res.Cmp.Order)
	}
	if !strings.Contains(res.String(), "prototype") {
		t.Error("Fig10 output malformed")
	}
}

func TestFig6StringSpeedups(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res, err := get[*Fig6Result](NewEval(smallSetup(), 32), "6")
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	if !strings.Contains(out, "makespan improvement") {
		t.Errorf("Fig6 output missing speedups:\n%s", out)
	}
}

func TestFederationCompareSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	fig3, err := Fig3(smallSetup(), true)
	if err != nil {
		t.Fatal(err)
	}
	pooled := fig3.Cmp.Reports["hadar"]
	res, err := FederationCompare(smallSetup(), []string{"least-queue", "round-robin"}, pooled)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d, want pooled + 2 routers", len(res.Series))
	}
	if res.Series[0].Series != "pooled" {
		t.Errorf("first series = %q, want pooled", res.Series[0].Series)
	}
	for _, s := range res.Series {
		if got := len(s.Report.Jobs); got != res.Jobs {
			t.Errorf("%s completed %d of %d jobs", s.Series, got, res.Jobs)
		}
		// The split holds the pooled cluster's devices, no more.
		if s.Report.TotalGPUs != SimCluster().TotalGPUs() {
			t.Errorf("%s ran on %d GPUs, want %d", s.Series, s.Report.TotalGPUs, SimCluster().TotalGPUs())
		}
	}
	if g := res.PooledGain(); !(g > 0) {
		t.Errorf("pooled gain %v, want a positive ratio", g)
	}
	out := res.String()
	for _, frag := range []string{"pooled", "split/least-queue", "split/round-robin", "avgJCT"} {
		if !strings.Contains(out, frag) {
			t.Errorf("federation comparison output missing %q:\n%s", frag, out)
		}
	}
	if _, err := FederationCompare(smallSetup(), []string{"price"}, pooled); err == nil {
		t.Error("federation comparison accepted a retired router")
	}
}

// TestFederationPooledIsFig3Hadar: the federation comparison's pooled
// series — one Hadar on SimCluster over the continuous trace — is the
// run Fig. 3b reports as Hadar's, report for report, so the comparison
// takes the Fig. 3b report instead of simulating it again.
func TestFederationPooledIsFig3Hadar(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	fig3, err := Fig3(smallSetup(), true)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := smallSetup().jobs(smallSetup().Rate)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := sim.Run(SimCluster(), jobs, NewHadar(), smallSetup().simOptions())
	if err != nil {
		t.Fatal(err)
	}
	hadar := fig3.Cmp.Reports["hadar"]
	// Everything but DecisionTime, the one wall-clock reading.
	a, b := *pooled, *hadar
	a.DecisionTime, b.DecisionTime = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("pooled Hadar avg JCT %v, Fig. 3b Hadar %v: not the same run", pooled.AvgJCT(), hadar.AvgJCT())
	}
}

func TestFailureScenarioSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res, err := get[*FailureScenarioResult](NewEval(smallSetup(), 32), "failures")
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	for _, frag := range []string{"outage", "recoveries", "lostIters", "hadar"} {
		if !strings.Contains(out, frag) {
			t.Errorf("failure scenario output missing %q", frag)
		}
	}
	for name, r := range res.Cmp.Reports {
		if len(r.Jobs) != 24 {
			t.Errorf("%s completed %d of 24 jobs under outages", name, len(r.Jobs))
		}
		if r.Faults.NodeDown != 2 || r.Faults.NodeUp != 2 {
			t.Errorf("%s node transitions = %d down / %d up, want 2/2",
				name, r.Faults.NodeDown, r.Faults.NodeUp)
		}
		// Outages begin mid-round, so gangs on the failing nodes must
		// actually lose work (the surprise path, not just exclusion).
		if r.Faults.Recoveries == 0 || r.Faults.LostIterations <= 0 {
			t.Errorf("%s recorded no lost work: %+v", name, r.Faults)
		}
	}
	for name, r := range res.Baseline.Reports {
		if r.Faults.Any() {
			t.Errorf("%s baseline has nonzero fault counters: %+v", name, r.Faults)
		}
	}
}
