package experiments

import (
	"encoding/csv"
	"math"
	"os"
	"strings"
	"testing"
)

func TestGrade(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		measured, paper, bound float64
		deviation              bool
		want                   Verdict
	}{
		{2, 1.8, 1.1, false, Meets},
		{1.5, 1.8, 1.1, false, Direction},
		{1.5, nan, 1.1, false, Direction},
		{1.5, 1.8, 1.1, true, Differs},
		{1.0, 1.8, 1.1, false, Fails},
		{1.0, 1.8, 1.1, true, Fails},
		{nan, 1.8, 1.1, false, Fails},
		{-0.1, -10, -10, false, Meets}, // lower is better: 0.1 against a paper 10
	} {
		if got := grade(c.measured, c.paper, c.bound, c.deviation); got != c.want {
			t.Errorf("grade(%v, %v, %v, %v) = %s, want %s", c.measured, c.paper, c.bound, c.deviation, got, c.want)
		}
	}
}

// TestScorecardRulesHold grades every scorecard rule on the paper's
// setup scaled to 96 jobs; `make experiments` grades them at 480.
func TestScorecardRulesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	setup := DefaultSetup()
	setup.NumJobs = 96
	figs, err := NewEval(setup, 512).Graded()
	if err != nil {
		t.Fatal(err)
	}
	card, err := NewScorecard(figs)
	if err != nil {
		t.Fatal(err)
	}
	if len(card.Rows) != 24 {
		t.Errorf("scorecard has %d rows, want 18 headline claims and 6 ablations", len(card.Rows))
	}
	for _, r := range card.Failed() {
		t.Errorf("%s fails at 96 jobs: measured %s, rule %s", r.ID, r.Measured, r.Rule)
	}
	t.Log("\n" + card.String())
}

// TestExperimentsEmbedsScorecard requires EXPERIMENTS.md to carry the
// committed results/scorecard.csv, rendered, verbatim: the headline
// table is generated, never typed.
func TestExperimentsEmbedsScorecard(t *testing.T) {
	f, err := os.Open("../../results/scorecard.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records[1:] {
		if Verdict(rec[len(rec)-1]) == Fails {
			t.Errorf("committed scorecard row %s fails", rec[0])
		}
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if md := markdown(records); !strings.Contains(string(doc), md) {
		t.Errorf("EXPERIMENTS.md does not embed results/scorecard.csv; the table it must contain:\n%s", md)
	}
}
