package metrics

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func sampleReport() *Report {
	return &Report{
		Scheduler: "test",
		Jobs: []JobResult{
			{ID: 0, Arrival: 0, Start: 10, Finish: 100, IsolatedDuration: 50},
			{ID: 1, Arrival: 20, Start: 30, Finish: 80, IsolatedDuration: 60},
			{ID: 2, Arrival: 40, Start: 90, Finish: 240, IsolatedDuration: 100},
		},
		Makespan:         240,
		BusyGPUSeconds:   480,
		HeldGPUSeconds:   600,
		TotalGPUs:        4,
		Rounds:           10,
		JobRoundAllocs:   10,
		JobRoundReallocs: 3,
		DecisionTime:     100 * time.Millisecond,
		Decisions:        10,
	}
}

func TestJCTAndQueueDelay(t *testing.T) {
	j := JobResult{Arrival: 10, Start: 25, Finish: 110}
	if j.JCT() != 100 {
		t.Errorf("JCT = %v", j.JCT())
	}
	if j.QueueDelay() != 15 {
		t.Errorf("QueueDelay = %v", j.QueueDelay())
	}
}

func TestReportJCTStats(t *testing.T) {
	r := sampleReport()
	// JCTs: 100, 60, 200.
	if got := r.AvgJCT(); math.Abs(got-120) > 1e-9 {
		t.Errorf("AvgJCT = %v, want 120", got)
	}
	if got := r.MedianJCT(); got != 100 {
		t.Errorf("MedianJCT = %v, want 100", got)
	}
	if r.MinJCT() != 60 || r.MaxJCT() != 200 {
		t.Errorf("Min/Max JCT = %v/%v", r.MinJCT(), r.MaxJCT())
	}
}

func TestAvgQueueDelay(t *testing.T) {
	r := sampleReport()
	// Delays: 10, 10, 50.
	if got := r.AvgQueueDelay(); math.Abs(got-70.0/3) > 1e-9 {
		t.Errorf("AvgQueueDelay = %v", got)
	}
}

func TestUtilizationAndOccupancy(t *testing.T) {
	r := sampleReport()
	if got, want := r.Utilization(), 480.0/600; math.Abs(got-want) > 1e-12 {
		t.Errorf("Utilization = %v, want %v", got, want)
	}
	if got, want := r.Occupancy(), 480.0/(4*240); math.Abs(got-want) > 1e-12 {
		t.Errorf("Occupancy = %v, want %v", got, want)
	}
	empty := &Report{}
	if empty.Utilization() != 0 || empty.Occupancy() != 0 {
		t.Error("empty report utilization nonzero")
	}
}

func TestFTF(t *testing.T) {
	r := sampleReport()
	// FTFs: 100/50=2, 60/60=1, 200/100=2.
	if got := r.AvgFTF(); math.Abs(got-5.0/3) > 1e-9 {
		t.Errorf("AvgFTF = %v", got)
	}
	if got := r.MaxFTF(); got != 2 {
		t.Errorf("MaxFTF = %v", got)
	}
}

func TestFTFInfiniteOnZeroIsolated(t *testing.T) {
	j := JobResult{Arrival: 0, Finish: 10, IsolatedDuration: 0}
	if !math.IsInf(j.FTF(), 1) {
		t.Error("FTF with zero isolated duration should be +Inf")
	}
}

func TestIsolatedDuration(t *testing.T) {
	// 1000 iters, 4 workers at 10 iters/s each -> 25s base. 10 jobs on
	// 20 GPUs: share = 2 GPUs < 4 workers -> stretch = 4*10/20 = 2.
	got := IsolatedDuration(1000, 4, 10, 10, 20)
	if math.Abs(got-50) > 1e-9 {
		t.Errorf("IsolatedDuration = %v, want 50", got)
	}
	// Within share: 1 worker, 10 jobs, 20 GPUs -> stretch 1.
	got = IsolatedDuration(1000, 1, 10, 10, 20)
	if math.Abs(got-100) > 1e-9 {
		t.Errorf("IsolatedDuration = %v, want 100", got)
	}
}

func TestIsolatedDurationDegenerate(t *testing.T) {
	if !math.IsInf(IsolatedDuration(100, 0, 10, 1, 1), 1) {
		t.Error("zero workers should yield +Inf")
	}
	if !math.IsInf(IsolatedDuration(100, 1, 0, 1, 1), 1) {
		t.Error("zero throughput should yield +Inf")
	}
}

func TestReallocationFraction(t *testing.T) {
	r := sampleReport()
	if got := r.ReallocationFraction(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("ReallocationFraction = %v, want 0.3", got)
	}
	if (&Report{}).ReallocationFraction() != 0 {
		t.Error("empty report realloc fraction nonzero")
	}
}

func TestAvgDecisionTime(t *testing.T) {
	r := sampleReport()
	if got := r.AvgDecisionTime(); got != 10*time.Millisecond {
		t.Errorf("AvgDecisionTime = %v", got)
	}
	if (&Report{}).AvgDecisionTime() != 0 {
		t.Error("empty report decision time nonzero")
	}
}

func TestCompletionCDF(t *testing.T) {
	r := sampleReport()
	cdf := r.CompletionCDF()
	if len(cdf) != 3 {
		t.Fatalf("CDF = %v", cdf)
	}
	if cdf[0].X != 80 || math.Abs(cdf[0].Fraction-1.0/3) > 1e-12 {
		t.Errorf("first CDF point = %+v", cdf[0])
	}
	if cdf[2].X != 240 || cdf[2].Fraction != 1 {
		t.Errorf("last CDF point = %+v", cdf[2])
	}
}

func TestCompletionAt(t *testing.T) {
	r := sampleReport()
	cases := []struct{ t, want float64 }{
		{0, 0}, {80, 1.0 / 3}, {100, 2.0 / 3}, {1000, 1},
	}
	for _, c := range cases {
		if got := r.CompletionAt(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("CompletionAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if (&Report{}).CompletionAt(10) != 0 {
		t.Error("empty report completion nonzero")
	}
}

func TestSortJobsByID(t *testing.T) {
	r := &Report{Jobs: []JobResult{{ID: 2}, {ID: 0}, {ID: 1}}}
	r.SortJobsByID()
	for i, j := range r.Jobs {
		if j.ID != i {
			t.Fatalf("jobs not sorted: %v", r.Jobs)
		}
	}
}

// TestViewSharesWithoutAliasing pins the share-on-publish contract: a
// view sees exactly what the report held when it was taken, whichever
// side appends afterwards, and SortedByID orders a copy.
func TestViewSharesWithoutAliasing(t *testing.T) {
	r := &Report{Scheduler: "test", Rounds: 2}
	r.Jobs = append(make([]JobResult, 0, 8), JobResult{ID: 2}, JobResult{ID: 0})
	r.RoundHeld = append(make([]int, 0, 8), 3, 4)
	r.RoundStarts = append(make([]float64, 0, 8), 0, 360)
	v := r.View()
	if cap(v.Jobs) != 2 || cap(v.RoundHeld) != 2 || cap(v.RoundStarts) != 2 {
		t.Fatalf("view capacities %d/%d/%d, want all clamped to 2", cap(v.Jobs), cap(v.RoundHeld), cap(v.RoundStarts))
	}
	// The report grows in its own array; the view grows into a new one.
	r.Jobs = append(r.Jobs, JobResult{ID: 1})
	r.RoundHeld = append(r.RoundHeld, 5)
	r.Rounds = 3
	v.Jobs = append(v.Jobs, JobResult{ID: 9})
	v.RoundHeld = append(v.RoundHeld, 9)
	if len(r.Jobs) != 3 || r.Jobs[2].ID != 1 || r.RoundHeld[2] != 5 {
		t.Errorf("an append through the view reached the report: %+v %v", r.Jobs, r.RoundHeld)
	}
	if len(v.Jobs) != 3 || v.Jobs[0].ID != 2 || v.Jobs[2].ID != 9 || v.RoundHeld[2] != 9 || v.Rounds != 2 {
		t.Errorf("an append through the report reached the view: %+v %v rounds=%d", v.Jobs, v.RoundHeld, v.Rounds)
	}
	sorted := r.SortedByID()
	if sorted.Jobs[0].ID != 0 || sorted.Jobs[1].ID != 1 || sorted.Jobs[2].ID != 2 || cap(sorted.Jobs) != 3 {
		t.Errorf("SortedByID = %+v (cap %d), want IDs 0, 1, 2 in an array of 3", sorted.Jobs, cap(sorted.Jobs))
	}
	if r.Jobs[0].ID != 2 || r.Jobs[1].ID != 0 || r.Jobs[2].ID != 1 {
		t.Errorf("SortedByID reordered the report itself: %+v", r.Jobs)
	}
}

func TestStringMentionsScheduler(t *testing.T) {
	s := sampleReport().String()
	if len(s) == 0 || s[:4] != "test" {
		t.Errorf("String() = %q", s)
	}
}

// Property: IsolatedDuration is monotonically non-increasing in cluster
// size (more GPUs per job can only help) and scales linearly with work.
func TestIsolatedDurationMonotoneProperty(t *testing.T) {
	prop := func(itersRaw uint16, w, n uint8, g1, g2 uint8) bool {
		iters := float64(itersRaw) + 1
		workers := int(w%8) + 1
		jobs := int(n%32) + 1
		small := int(g1%32) + 1
		big := small + int(g2%32) + 1
		dSmall := IsolatedDuration(iters, workers, 10, jobs, small)
		dBig := IsolatedDuration(iters, workers, 10, jobs, big)
		if dBig > dSmall+1e-9 {
			return false
		}
		double := IsolatedDuration(2*iters, workers, 10, jobs, small)
		return math.Abs(double-2*dSmall) < 1e-6*dSmall
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestOccupancyUntil(t *testing.T) {
	r := &Report{
		TotalGPUs:   4,
		RoundHeld:   []int{4, 2, 0},
		RoundStarts: []float64{0, 100, 200},
	}
	// Until t=150: rounds at 0 and 100 -> (4+2)/(2*4) = 0.75.
	if got := r.OccupancyUntil(150); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("OccupancyUntil(150) = %v, want 0.75", got)
	}
	// Until t=1000: all rounds -> 6/12 = 0.5.
	if got := r.OccupancyUntil(1000); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("OccupancyUntil(1000) = %v, want 0.5", got)
	}
	if got := r.OccupancyUntil(0); got != 0 {
		t.Errorf("OccupancyUntil(0) = %v, want 0 (no rounds started)", got)
	}
	if (&Report{}).OccupancyUntil(10) != 0 {
		t.Error("empty report occupancy nonzero")
	}
}

// TestJobResultAppendJSONMatchesMarshal: AppendJSON writes the bytes
// json.Marshal writes for a JobResult, odd strings and floats included,
// and fails where json.Marshal fails.
func TestJobResultAppendJSONMatchesMarshal(t *testing.T) {
	odd := []string{"", "LSTM", `q"uote`, `back\slash`, "tab\there", "<b>&amp;</b>", "héllo", "bad\xffutf8", "sep\u2028\u2029", "\x00\x1f\x7f"}
	floats := []float64{0, 1, -2.5, 1e-7, 1.5e-6, 123456.789, 1e20, 1e21, 3e300, 5e-324, 0.1 + 0.2}
	var buf []byte
	for i := 0; i < 200; i++ {
		r := JobResult{
			ID: i*7919 - 300, Model: odd[i%len(odd)], Workers: i % 9,
			Arrival: floats[i%len(floats)], Start: floats[(i/2)%len(floats)], Finish: floats[(i/3)%len(floats)],
			TotalIters: floats[(i/5)%len(floats)], IsolatedDuration: floats[(i/7)%len(floats)], Reallocations: i % 4,
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if buf, err = r.AppendJSON(buf[:0]); err != nil {
			t.Fatal(err)
		}
		if string(buf) != string(want) {
			t.Fatalf("JobResult bytes differ:\n got %s\nwant %s", buf, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := (JobResult{Finish: bad}).AppendJSON(nil); err == nil {
			t.Errorf("finish %v encoded, want an error as encoding/json gives", bad)
		}
	}
}
