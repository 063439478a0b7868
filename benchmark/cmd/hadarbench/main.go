// Command hadarbench is the repository's benchmark.
//
//	go run -C benchmark ./cmd/hadarbench                       all four workloads, timed and traced
//	go run -C benchmark ./cmd/hadarbench -workload svc-soak    one workload, timed
//	go run -C benchmark ./cmd/hadarbench -workload svc-soak -trace 1
//	go run -C benchmark ./cmd/hadarbench -quick                one repetition each, no traced pass
//	go run -C benchmark ./cmd/hadarbench -compare a.json b.json
//	go run -C benchmark ./cmd/hadarbench -compare a1.json,a2.json,a3.json b1.json,b2.json,b3.json
//
// With -workload it makes one run in this process and prints, as the
// last line of standard output, the JSON object the acceptance driver
// reads. Without it, it runs every workload in a child process of its
// own, one after the other, and writes the whole set to -out. It exits
// non-zero when an output was wrong.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/benchmark"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hadarbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this one workload in this process (default: all, one child process each)")
		seed     = fs.Int64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", 0, "how long the repetitions of a run measure for (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "1: traced pass with per-layer metrics; 0: timed pass with end-to-end metrics")
		reps     = fs.Int("reps", 0, "fix the number of repetitions per run (overrides -seconds)")
		quick    = fs.Bool("quick", false, "one repetition per workload and no traced pass, for local iteration")
		outDir   = fs.String("outdir", "out", "directory for span files, journal directories and child results")
		out      = fs.String("out", "", "write the result (one run) or the result set (all workloads) as JSON here")
		compare  = fs.Bool("compare", false, "compare two result sets (or two comma-separated lists of sets, pooled) under the bounds of BENCHMARK.json")
		specPath = fs.String("spec", filepath.Join("..", "BENCHMARK.json"), "path of BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "hadarbench: %v\n", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		return compareFiles(stdout, *specPath, fs.Arg(0), fs.Arg(1), fail)
	}
	if *quick {
		*reps = 1
	}
	if *seconds == 0 && *reps == 0 {
		spec, err := benchmark.ReadSpec(*specPath)
		if err != nil {
			return fail(fmt.Errorf("no -seconds and no readable BENCHMARK.json: %w", err))
		}
		*seconds = float64(spec.RunSeconds)
	}
	if *workload == "" {
		return runAll(stdout, stderr, *seed, *seconds, *reps, *quick, *outDir, *out, fail)
	}

	w, ok := benchmark.WorkloadByName(*workload)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	// Load is sized to the machine: never more than four processors,
	// and the workloads never run more client goroutines than two.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	res, err := benchmark.Run(benchmark.Config{
		Workload: w, Seed: *seed, Seconds: *seconds, Reps: *reps, Trace: *trace != 0, OutDir: *outDir,
	})
	if err != nil {
		return fail(err)
	}
	benchmark.Print(stdout, res)
	if *out != "" {
		if err := benchmark.WriteJSON(*out, res); err != nil {
			return fail(err)
		}
	}
	if err := benchmark.PrintContractLine(stdout, res); err != nil {
		return fail(err)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, one after
// the other, so each starts from a clean heap and reports its own peak
// resident set; the traced pass is a second child.
func runAll(stdout, stderr io.Writer, seed int64, seconds float64, reps int, quick bool, outDir, out string, fail func(error) int) int {
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	set := benchmark.ResultSet{Env: benchmark.CaptureEnv(outDir), Seed: seed}
	code := 0
	for _, w := range benchmark.Workloads() {
		for traced := 0; traced <= 1; traced++ {
			if quick && traced == 1 {
				continue
			}
			file := filepath.Join(outDir, fmt.Sprintf("%s.%d.json", w.Name, traced))
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-reps", strconv.Itoa(reps),
				"-trace", strconv.Itoa(traced), "-outdir", outDir, "-out", file)
			var childOut bytes.Buffer
			cmd.Stdout, cmd.Stderr = &childOut, stderr
			runErr := cmd.Run()
			// The child's last line is for the driver; a reader wants the rest.
			lines := bytes.Split(bytes.TrimRight(childOut.Bytes(), "\n"), []byte("\n"))
			stdout.Write(bytes.Join(lines[:max(len(lines)-1, 0)], []byte("\n"))) //nolint:errcheck // best-effort echo
			fmt.Fprintln(stdout)
			if runErr != nil {
				fmt.Fprintf(stderr, "hadarbench: %s traced=%d: %v\n", w.Name, traced, runErr)
				code = 1
			}
			data, err := os.ReadFile(file)
			if err != nil {
				continue // the child failed before it had a result
			}
			var res benchmark.Result
			if err := json.Unmarshal(data, &res); err != nil {
				return fail(err)
			}
			set.Results = append(set.Results, &res)
			os.Remove(file)
		}
	}
	if out == "" {
		out = filepath.Join(outDir, "results.json")
	}
	if err := benchmark.WriteJSON(out, &set); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	return code
}

// readPooled reads one result set, or several given as a
// comma-separated list and pooled into one.
func readPooled(files string) (*benchmark.ResultSet, error) {
	var sets []*benchmark.ResultSet
	for _, file := range strings.Split(files, ",") {
		set, err := benchmark.ReadResultSet(file)
		if err != nil {
			return nil, err
		}
		sets = append(sets, set)
	}
	return benchmark.Pool(sets)
}

func compareFiles(stdout io.Writer, specPath, fileA, fileB string, fail func(error) int) int {
	spec, err := benchmark.ReadSpec(specPath)
	if err != nil {
		return fail(err)
	}
	a, err := readPooled(fileA)
	if err != nil {
		return fail(err)
	}
	b, err := readPooled(fileB)
	if err != nil {
		return fail(err)
	}
	if bad := benchmark.Compare(stdout, spec, a, b); bad > 0 {
		fmt.Fprintf(stdout, "%d pair(s) worse, unresolved or differing\n", bad)
		return 1
	}
	return 0
}
