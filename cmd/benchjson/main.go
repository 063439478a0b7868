// Command benchjson converts `go test -bench -benchmem` text output
// into a machine-readable JSON benchmark report.
//
// It reads the benchmark run from stdin, echoes every line through to
// stdout unchanged (so the pipeline stays readable in a terminal or CI
// log), and writes the parsed entries — op name, iterations, ns/op,
// B/op, allocs/op, plus any custom b.ReportMetric units — to the file
// named by -o. It exits nonzero if no benchmark lines were found, so a
// misspelled -bench pattern fails the make target instead of silently
// producing an empty report.
//
// -require op1,op2 fails the run unless every named op is present, so
// a renamed benchmark cannot silently drop out of the report. The
// report records ns/op but gates nothing on it: timings move with the
// machine, so the repository's gates are allocation counts in tests.
//
// Usage:
//
//	go test -run='^$' -bench=... -benchmem . | go run ./cmd/benchjson -o BENCH_sim.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// entry is one parsed benchmark result line.
type entry struct {
	// Op is the benchmark name with the "Benchmark" prefix and the
	// -GOMAXPROCS suffix stripped: "BenchmarkDPAllocate-8" → "DPAllocate".
	Op         string  `json:"op"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present only under -benchmem.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units (e.g. "avgJCT-h").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// parseLine parses one "BenchmarkX-8  N  v unit  v unit ..." line,
// returning ok=false for anything that is not a benchmark result.
func parseLine(line string) (entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return entry{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return entry{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	e := entry{Op: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return entry{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			e.NsPerOp = v
		case "B/op":
			b := v
			e.BytesPerOp = &b
		case "allocs/op":
			a := v
			e.AllocsPerOp = &a
		default:
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[unit] = v
		}
	}
	return e, true
}

// convert tees r to w while collecting parsed benchmark entries.
func convert(r io.Reader, w io.Writer) ([]entry, error) {
	var entries []entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(w, line)
		if e, ok := parseLine(line); ok {
			entries = append(entries, e)
		}
	}
	return entries, sc.Err()
}

// checkRequired verifies every comma-separated op name appears among
// the parsed entries.
func checkRequired(entries []entry, required string) error {
	if required == "" {
		return nil
	}
	have := map[string]bool{}
	for _, e := range entries {
		have[e.Op] = true
	}
	var missing []string
	for _, op := range strings.Split(required, ",") {
		op = strings.TrimSpace(op)
		if op != "" && !have[op] {
			missing = append(missing, op)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("required ops missing from benchmark output: %s", strings.Join(missing, ", "))
	}
	return nil
}

func main() {
	out := flag.String("o", "BENCH_sim.json", "output JSON file")
	require := flag.String("require", "", "comma-separated op names that must be present")
	flag.Parse()

	entries, err := convert(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading input: %v\n", err)
		os.Exit(1)
	}
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines found in input")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: encoding: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d entries to %s\n", len(entries), *out)
	if err := checkRequired(entries, *require); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
