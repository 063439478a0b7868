package main

import (
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestFig7PlotIsTheJobsSweep pins the -plot chart of Fig. 7 to the
// jobs sweep: the node-count points share the result but have no Gavel
// latency and a different x-axis.
func TestFig7PlotIsTheJobsSweep(t *testing.T) {
	r := &experiments.Fig7Result{Points: []experiments.Fig7Point{
		{Series: "jobs-sweep", Jobs: 32, HadarLatency: time.Millisecond, GavelLatency: 2 * time.Millisecond},
		{Series: "jobs-sweep", Jobs: 128, HadarLatency: 3 * time.Millisecond, GavelLatency: 4 * time.Millisecond},
		{Series: "nodes-prop", Jobs: 10000, Nodes: 5000, HadarLatency: 9 * time.Millisecond},
	}}
	out := renderPlot(r)
	for _, want := range []string{"32", "128", "hadar", "gavel"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "10000") || strings.Contains(out, "9.0") {
		t.Errorf("chart plots the node sweep:\n%s", out)
	}
}

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
