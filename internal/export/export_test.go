package export

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func sampleComparison() *experiments.Comparison {
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
	return &experiments.Comparison{
		Order: []string{"hadar", "gavel"},
		Reports: map[string]*metrics.Report{
			"hadar": mk("hadar", 100),
			"gavel": mk("gavel", 150),
		},
	}
}

func parseCSV(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	rows, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatalf("exported CSV does not parse: %v", err)
	}
	return rows
}

func TestComparisonCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := Comparison(&buf, sampleComparison()); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
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
	var buf bytes.Buffer
	if err := CompletionCDF(&buf, sampleComparison()); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
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
	var buf bytes.Buffer
	r := &experiments.Fig7Result{Points: []experiments.Fig7Point{
		{Series: "jobs-sweep", Jobs: 32, Nodes: 3, GPUs: 12, HadarLatency: 42500 * time.Nanosecond, GavelLatency: 80 * time.Microsecond},
		{Series: "nodes-fixed", Jobs: 480, Nodes: 5000, GPUs: 20000, HadarLatency: 276498 * time.Nanosecond},
	}}
	if err := Fig7(&buf, r); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
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
	var buf bytes.Buffer
	r8 := &experiments.Fig8Result{Points: []experiments.Fig8Point{
		{RatePerHour: 2, Scheduler: "hadar", MinJCT: 1, AvgJCT: 2, MaxJCT: 3},
	}}
	if err := Fig8(&buf, r8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hadar") {
		t.Error("Fig8 CSV missing scheduler")
	}
	buf.Reset()
	r9 := &experiments.Fig9Result{Points: []experiments.Fig9Point{
		{RoundMinutes: 6, RatePerHour: 2, AvgJCT: 100},
	}}
	if err := Fig9(&buf, r9); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	if len(rows) != 2 || rows[1][0] != "6" {
		t.Errorf("Fig9 rows = %v", rows)
	}
}

func TestFedCompareCSV(t *testing.T) {
	var buf bytes.Buffer
	cmp := sampleComparison()
	r := &experiments.FedCompareResult{
		Jobs: 2,
		Series: []experiments.FedSeries{
			{Series: "pooled", Report: cmp.Reports["hadar"]},
			{Series: "split/least-queue", Report: cmp.Reports["gavel"]},
		},
	}
	if err := FedCompare(&buf, r); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
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
	card := &experiments.Scorecard{Rows: []experiments.Row{
		{ID: "fig5-ftf-gavel", Claim: "FTF vs Gavel", Paper: "1.5x", Measured: "3.268x", Rule: "≥ 1.5x", Verdict: experiments.Meets},
		{ID: "fig4-utilization-order", Claim: "YARN-CS highest, Hadar close", Paper: "ordering",
			Measured: "YARN-CS 99.35, Hadar 99.24 %", Rule: "YARN-CS ≥ Hadar", Verdict: experiments.Meets},
	}}
	var buf bytes.Buffer
	if err := Scorecard(&buf, card); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	if got := strings.Join(rows[0], ","); got != "id,claim,paper,measured,rule,verdict" {
		t.Errorf("header = %s", got)
	}
	if len(rows) != 3 || rows[2][3] != card.Rows[1].Measured || rows[1][5] != "meets" {
		t.Errorf("rows = %q, want the two scorecard rows, commas intact", rows)
	}
}
