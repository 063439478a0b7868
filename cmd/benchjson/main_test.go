package main

import (
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	e, ok := parseLine("BenchmarkScaleRound/prop/nodes=60-8 \t     4096\t    271234 ns/op\t   24265 B/op\t     538 allocs/op")
	if !ok {
		t.Fatal("benchmark line not recognized")
	}
	if e.Op != "ScaleRound/prop/nodes=60" || e.Iterations != 4096 || e.NsPerOp != 271234 {
		t.Errorf("parsed %+v", e)
	}
	if e.BytesPerOp == nil || *e.BytesPerOp != 24265 || e.AllocsPerOp == nil || *e.AllocsPerOp != 538 {
		t.Errorf("memory stats not parsed: %+v", e)
	}

	e, ok = parseLine("BenchmarkFig5FTF-8   1  5e+09 ns/op  3.21 hadar-avgFTF")
	if !ok || e.Metrics["hadar-avgFTF"] != 3.21 {
		t.Errorf("custom metric not parsed: %+v ok=%v", e, ok)
	}

	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \trepro\t12.3s",
		"BenchmarkBroken-8 notanumber 12 ns/op",
		"",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("non-result line %q parsed as a benchmark", line)
		}
	}
}

func TestConvertTeesAndCollects(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"BenchmarkDPAllocate-8   100   11000 ns/op   123 B/op   45 allocs/op",
		"BenchmarkGreedyAllocate-8   200   5000 ns/op",
		"PASS",
	}, "\n")
	var out strings.Builder
	entries, err := convert(strings.NewReader(in), &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Op != "DPAllocate" || entries[1].Op != "GreedyAllocate" {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[1].BytesPerOp != nil {
		t.Error("B/op invented for a line without -benchmem columns")
	}
	if !strings.Contains(out.String(), "goos: linux") || !strings.Contains(out.String(), "PASS") {
		t.Error("input not teed through to output")
	}
}

func TestCheckRequired(t *testing.T) {
	entries := []entry{{Op: "DPAllocate"}, {Op: "ScaleRound/prop/nodes=60"}}
	if err := checkRequired(entries, "DPAllocate,ScaleRound/prop/nodes=60"); err != nil {
		t.Errorf("present ops reported missing: %v", err)
	}
	if err := checkRequired(entries, "DPAllocate,StragglerRound/nodes=250/jobs=8"); err == nil {
		t.Error("missing op StragglerRound/nodes=250/jobs=8 not reported")
	}
	if err := checkRequired(entries, ""); err != nil {
		t.Errorf("empty requirement errored: %v", err)
	}
}
