package benchmark

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// Env is where a result came from.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// OutFS is the filesystem type of the output directory, which is
	// where the durable workload's journal is fsynced.
	OutFS string `json:"out_fs"`
}

// CaptureEnv describes the running process and the output directory.
func CaptureEnv(outDir string) Env {
	env := Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		OutFS:      "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(outDir, &st); err == nil {
		env.OutFS = fsName(int64(st.Type))
	}
	return env
}

// fsName names the statfs magic numbers a sandbox is likely to show.
func fsName(magic int64) string {
	switch magic {
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("%#x", magic)
}

// metricNames returns the names a result carries, in table order.
func metricNames(res *Result) []string {
	var names []string
	for _, defs := range [][]MetricDef{EndToEnd, PerLayer} {
		for _, d := range defs {
			if _, ok := res.Metrics[d.Name]; ok {
				names = append(names, d.Name)
			}
		}
	}
	return names
}

// Print writes the result for a reader: one line per metric with its
// name, value and unit, and the sample count and quartiles where there
// are any. Metrics a workload's path does not touch are summarised in
// one line instead of printed as a column of zeros.
func Print(w io.Writer, res *Result) {
	fmt.Fprintf(w, "%s seed=%d traced=%v reps=%d %s\n", res.Workload, res.Seed, res.Traced, res.Reps, res.Identity)
	var idle []string
	for _, name := range metricNames(res) {
		s := res.Metrics[name]
		if s.Value == 0 && res.Traced {
			idle = append(idle, name)
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s", name, s.Value, s.Unit)
		if s.N > 0 {
			fmt.Fprintf(w, " n=%d", s.N)
		}
		if s.Q1 != 0 || s.Q3 != 0 {
			fmt.Fprintf(w, " q1=%.6g median=%.6g q3=%.6g", s.Q1, s.Median, s.Q3)
		}
		fmt.Fprintln(w)
	}
	if len(idle) > 0 {
		fmt.Fprintf(w, "  0 (not on this workload's path): %s\n", strings.Join(idle, " "))
	}
	if !res.Correct {
		fmt.Fprintf(w, "  INCORRECT: %s\n", res.Error)
	}
}

// PrintContractLine writes the one JSON object the acceptance driver
// reads from the last line of standard output.
func PrintContractLine(w io.Writer, res *Result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for name, s := range res.Metrics {
		line.Metrics[name] = value{s.Value, s.Unit}
	}
	data, err := json.Marshal(&line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// ResultSet is one complete set of runs: every workload, timed and
// traced, with where it was measured.
type ResultSet struct {
	Env     Env       `json:"env"`
	Seed    int64     `json:"seed"`
	Results []*Result `json:"results"`
}

// WriteJSON writes v to path, indented.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadResultSet loads a file WriteJSON wrote.
func ReadResultSet(path string) (*ResultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set ResultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sort.SliceStable(set.Results, func(i, j int) bool { return set.Results[i].Workload < set.Results[j].Workload })
	return &set, nil
}
