package main

import (
	"os"
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
