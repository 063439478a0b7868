package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestWriteCSVRejectsUnknownResults pins writeCSV to fail, naming the
// type, on a result it has no writer for: -seeds 5 -csv results used to
// exit 0 having written nothing.
func TestWriteCSVRejectsUnknownResults(t *testing.T) {
	dir := t.TempDir()
	err := writeCSV(dir, &experiments.SeedSweep{})
	if err == nil || !strings.Contains(err.Error(), "SeedSweep") {
		t.Fatalf("writeCSV(SeedSweep) = %v, want an error naming the type", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("writeCSV(SeedSweep) wrote %d files", len(entries))
	}
}

// TestWriteCSVRoundTrips: every file of a result is written under its
// name and reads back as its rows, commas inside cells intact.
func TestWriteCSVRoundTrips(t *testing.T) {
	dir := t.TempDir()
	card := &experiments.Scorecard{Rows: []experiments.Row{
		{ID: "fig4-utilization-order", Claim: "YARN-CS highest, Hadar close", Paper: "ordering",
			Measured: "YARN-CS 99.35, Hadar 99.24 %", Rule: "YARN-CS ≥ Hadar", Verdict: experiments.Meets},
	}}
	if err := writeCSV(dir, card); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "scorecard.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, card.Table()) {
		t.Errorf("read back %q, wrote %q", rows, card.Table())
	}
}
