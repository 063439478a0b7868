// Command crashchaos is a real-process crash smoke for hadard's journal:
// it submits half of a set of keyed jobs to hadard -wal over HTTP,
// SIGKILLs it, restarts it with -recover, requires every acked job back
// and every key to dedup, submits the rest, and requires a clean SIGTERM
// exit. The crash space itself (every operation boundary, torn frame and
// unsynced prefix) is enumerated in process by internal/service's
// TestCrashEnumeration; this checks the binary, its flags, a real kill.
//
// Usage (normally via `make crash-smoke`):
//
//	crashchaos -hadard bin/hadard [-jobs 24] [-clusters 1]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

var (
	hadardBin = flag.String("hadard", "", "path to the hadard binary (required)")
	jobCount  = flag.Int("jobs", 24, "keyed submissions, half before the kill and half after")
	clusters  = flag.Int("clusters", 1, "hadard's -clusters")
	client    = &http.Client{Timeout: 10 * time.Second}
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "crashchaos: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	if *hadardBin == "" {
		return fmt.Errorf("-hadard is required")
	}
	dir, err := os.MkdirTemp("", "crashchaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	proc, addr, err := start(dir, false)
	if err != nil {
		return err
	}
	acked := make(map[string]int)
	half := *jobCount / 2
	if err := submitRange(addr, 0, half, acked); err != nil {
		proc.Process.Kill()
		return err
	}
	proc.Process.Kill()
	proc.Wait()

	if proc, addr, err = start(dir, true); err != nil {
		return err
	}
	defer proc.Process.Kill()
	for key, id := range acked {
		resp, err := client.Get(fmt.Sprintf("%s/api/jobs/%d", addr, id))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("acked job %d (%s) lost by recovery: status %d", id, key, resp.StatusCode)
		}
	}
	// Every key again: the acked half must dedup, the rest are fresh.
	if err := submitRange(addr, 0, *jobCount, acked); err != nil {
		return err
	}
	if err := proc.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := proc.Wait(); err != nil {
		return fmt.Errorf("graceful shutdown after recovery: %v", err)
	}
	fmt.Printf("crashchaos: %d members, %d keys acked before SIGKILL all recovered and deduped, %d more admitted, clean exit\n",
		*clusters, half, *jobCount-half)
	return nil
}

// start boots hadard on a fresh port over the journal in dir and waits
// for its address.
func start(dir string, recover bool) (*exec.Cmd, string, error) {
	addrFile := filepath.Join(dir, "addr")
	os.Remove(addrFile)
	args := []string{"-scheduler", "ref-srtf", "-clock", "virtual", "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-wal", dir, "-fsync", "always", "-checkpoint-every", "8", "-clusters", fmt.Sprint(*clusters)}
	if recover {
		args = append(args, "-recover")
	}
	cmd := exec.Command(*hadardBin, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return cmd, "http://" + string(b), nil
		}
	}
	cmd.Process.Kill()
	return nil, "", fmt.Errorf("hadard never published its address")
}

// submitRange posts keys [from, to). A key already in acked must dedup
// to the same job; a new one is recorded.
func submitRange(addr string, from, to int, acked map[string]int) error {
	for i := from; i < to; i++ {
		key := fmt.Sprintf("key-%d", i)
		body, _ := json.Marshal(map[string]any{"key": key, "model": "ResNet-50", "workers": 1 + i%2, "gpu_hours": 0.05 * float64(1+i%5)})
		resp, err := client.Post(addr+"/api/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var out struct {
			ID      int  `json:"id"`
			Deduped bool `json:"deduped"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			time.Sleep(5 * time.Millisecond)
			i--
			continue
		case err != nil || resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK:
			return fmt.Errorf("submit %s: status %d (%v)", key, resp.StatusCode, err)
		}
		if prev, ok := acked[key]; ok && (!out.Deduped || out.ID != prev) {
			return fmt.Errorf("key %s was job %d, resubmission gave job %d (deduped %v)", key, prev, out.ID, out.Deduped)
		}
		acked[key] = out.ID
	}
	return nil
}
