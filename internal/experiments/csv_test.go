package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func sampleComparison() *Comparison {
	mk := func(name string, jct float64) *metrics.Report {
		return &metrics.Report{
			Scheduler: name,
			Jobs: []metrics.JobResult{
				{ID: 0, Model: "LSTM", Workers: 2, Arrival: 0, Start: 10,
					Finish: jct, IsolatedDuration: jct / 2, TotalIters: 100},
				{ID: 1, Model: "ResNet-50", Workers: 1, Arrival: 5, Start: 20,
					Finish: jct * 2, IsolatedDuration: jct, TotalIters: 200},
			},
			Makespan:       jct * 2,
			BusyGPUSeconds: 100,
			HeldGPUSeconds: 120,
			TotalGPUs:      4,
			RoundHeld:      []int{4, 3, 1},
			RoundStarts:    []float64{0, 360, 720},
		}
	}
	return &Comparison{
		Order: []string{"hadar", "gavel"},
		Reports: map[string]*metrics.Report{
			"hadar": mk("hadar", 100),
			"gavel": mk("gavel", 150),
		},
	}
}

// oneFile returns the rows of a result's one CSV file.
func oneFile(t *testing.T, files []CSVFile) [][]string {
	t.Helper()
	if len(files) != 1 {
		t.Fatalf("%d CSV files, want 1", len(files))
	}
	return files[0].Rows
}

func TestComparisonCSV(t *testing.T) {
	rows := oneFile(t, (&Fig4Result{Cmp: sampleComparison()}).CSV())
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want header + 2", len(rows))
	}
	if rows[0][0] != "scheduler" || len(rows[0]) != 12 {
		t.Errorf("header = %v", rows[0])
	}
	if rows[1][0] != "hadar" || rows[2][0] != "gavel" {
		t.Errorf("scheduler order = %v %v", rows[1][0], rows[2][0])
	}
}

func TestCompletionCDFCSV(t *testing.T) {
	files := (&Fig3Result{Arrival: "static", Cmp: sampleComparison()}).CSV()
	if files[0].Name != "fig3_static_cdf.csv" {
		t.Fatalf("first file = %s, want the CDF", files[0].Name)
	}
	rows := files[0].Rows
	// header + 2 schedulers x 2 distinct finish times.
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	last := rows[len(rows)-1]
	if last[2] != "1" {
		t.Errorf("final CDF fraction = %v, want 1", last[2])
	}
}

func TestFig7CSV(t *testing.T) {
	r := &Fig7Result{Points: []Fig7Point{
		{Series: "jobs-sweep", Jobs: 32, Nodes: 3, GPUs: 12, HadarLatency: 42500 * time.Nanosecond, GavelLatency: 80 * time.Microsecond},
		{Series: "nodes-fixed", Jobs: 480, Nodes: 5000, GPUs: 20000, HadarLatency: 276498 * time.Nanosecond},
	}}
	rows := oneFile(t, r.CSV())
	if len(rows) != 3 {
		t.Fatalf("Fig7 rows = %v", rows)
	}
	for r, want := range [][]string{
		{"jobs-sweep", "3", "12", "32", "42.5", "80"},
		{"nodes-fixed", "5000", "20000", "480", "276.498", ""},
	} {
		for i, v := range want {
			if rows[r+1][i] != v {
				t.Errorf("Fig7 row %d col %d = %q, want %q (row %v)", r+1, i, rows[r+1][i], v, rows[r+1])
			}
		}
	}
}

func TestFig8And9CSV(t *testing.T) {
	r8 := &Fig8Result{Points: []Fig8Point{
		{RatePerHour: 2, Scheduler: "hadar", MinJCT: 1, AvgJCT: 2, MaxJCT: 3},
	}}
	if rows := oneFile(t, r8.CSV()); len(rows) != 2 || rows[1][1] != "hadar" {
		t.Errorf("Fig8 rows = %v", rows)
	}
	r9 := &Fig9Result{Points: []Fig9Point{
		{RoundMinutes: 6, RatePerHour: 2, AvgJCT: 100},
	}}
	if rows := oneFile(t, r9.CSV()); len(rows) != 2 || rows[1][0] != "6" {
		t.Errorf("Fig9 rows = %v", rows)
	}
}

func TestFedCompareCSV(t *testing.T) {
	cmp := sampleComparison()
	r := &FedCompareResult{
		Jobs: 2,
		Series: []FedSeries{
			{Series: "pooled", Report: cmp.Reports["hadar"]},
			{Series: "split/least-queue", Report: cmp.Reports["gavel"]},
		},
	}
	rows := oneFile(t, r.CSV())
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want header + 2 series", len(rows))
	}
	wantHeader := []string{"series", "jobs", "avg_jct_s", "median_jct_s", "makespan_s", "utilization", "completed"}
	for i, col := range wantHeader {
		if rows[0][i] != col {
			t.Errorf("header col %d = %q, want %q", i, rows[0][i], col)
		}
	}
	if rows[1][0] != "pooled" || rows[2][0] != "split/least-queue" {
		t.Errorf("series order = %v %v", rows[1][0], rows[2][0])
	}
	if rows[1][1] != "2" || rows[1][6] != "2" {
		t.Errorf("pooled row = %v", rows[1])
	}
}

func TestScorecardCSV(t *testing.T) {
	card := &Scorecard{Rows: []Row{
		{ID: "fig5-ftf-gavel", Claim: "FTF vs Gavel", Paper: "1.5x", Measured: "3.268x", Rule: "≥ 1.5x", Verdict: Meets},
		{ID: "fig4-utilization-order", Claim: "YARN-CS highest, Hadar close", Paper: "ordering",
			Measured: "YARN-CS 99.35, Hadar 99.24 %", Rule: "YARN-CS ≥ Hadar", Verdict: Meets},
	}}
	rows := oneFile(t, card.CSV())
	if got := strings.Join(rows[0], ","); got != "id,claim,paper,measured,rule,verdict" {
		t.Errorf("header = %s", got)
	}
	if len(rows) != 3 || rows[2][3] != card.Rows[1].Measured || rows[1][5] != "meets" {
		t.Errorf("rows = %q, want the two scorecard rows", rows)
	}
}
