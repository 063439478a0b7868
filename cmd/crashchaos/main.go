// Command crashchaos is the kill/restart chaos harness for hadard's
// crash-safe journal. Each seeded iteration boots a real hadard
// process with a write-ahead journal, drives it over HTTP with a
// loadgen workload of idempotency-keyed submissions, and murders it at
// a seed-derived point — either a SIGKILL after a random number of
// acknowledged admissions, or a torn write injected mid-append via
// HADARD_CRASH_AFTER_BYTES. The process is then restarted with
// -recover and the drive resumes with the same keys.
//
// After one or two kills the run finishes cleanly: every job is
// driven to a terminal phase, the server is shut down gracefully with
// SIGTERM, and the harness asserts the durability contract end to end:
//
//   - zero acked-job loss: every admission the client saw acknowledged
//     is present after every recovery and in the final journal replay;
//   - no duplicate admissions: resubmitting every key yields
//     deduped=true with the originally acknowledged job ID;
//   - digest equality: a full fresh-engine replay of the journal
//     (service.VerifyFedWAL) reproduces every per-round schedule digest,
//     and its final digest matches the live engine's last snapshot —
//     the recovered schedule is byte-identical to an uninterrupted run.
//
// -clusters N puts N members behind hadard's front door; same contract.
//
// Usage (normally via `make crash-smoke` or `make crash-chaos`):
//
//	crashchaos -hadard bin/hadard [-seeds 20] [-first-seed 1]
//	           [-jobs 32] [-clusters 1] [-dir DIR] [-timeout 90s] [-v]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/job"
	"repro/internal/loadgen"
	"repro/internal/service"
	"repro/internal/sim"
)

func main() {
	var (
		hadardBin = flag.String("hadard", "", "path to the hadard binary (required)")
		seeds     = flag.Int("seeds", 20, "number of seeded kill/restart iterations")
		firstSeed = flag.Int64("first-seed", 1, "first seed; iteration i uses first-seed+i")
		jobCount  = flag.Int("jobs", 32, "jobs per iteration")
		clusters  = flag.Int("clusters", 1, "hadard's -clusters: member clusters behind the front door")
		baseDir   = flag.String("dir", "", "working directory (default: a temp dir)")
		budget    = flag.Duration("timeout", 90*time.Second, "wall-clock budget per iteration")
		verbose   = flag.Bool("v", false, "stream server output and per-step progress")
	)
	flag.Parse()
	if *hadardBin == "" {
		fmt.Fprintln(os.Stderr, "crashchaos: -hadard is required")
		os.Exit(2)
	}
	bin, err := filepath.Abs(*hadardBin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crashchaos: %v\n", err)
		os.Exit(2)
	}
	dir := *baseDir
	if dir == "" {
		dir, err = os.MkdirTemp("", "crashchaos-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "crashchaos: %v\n", err)
			os.Exit(1)
		}
	}

	failures, kills := 0, 0
	start := time.Now()
	for i := 0; i < *seeds; i++ {
		seed := *firstSeed + int64(i)
		r := &seedRun{
			seed:    seed,
			bin:     bin,
			dir:     filepath.Join(dir, fmt.Sprintf("seed-%d", seed)),
			jobs:    *jobCount,
			members: *clusters,
			ledger:  make(map[string]int),
			client:  &http.Client{Timeout: 10 * time.Second},
			verbose: *verbose,
		}
		err := r.run(*budget)
		kills += r.kills
		if err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "crashchaos: seed %d FAILED: %v\n", seed, err)
			fmt.Fprintf(os.Stderr, "crashchaos: seed %d server output:\n%s\n", seed, r.out.String())
			fmt.Fprintf(os.Stderr, "crashchaos: seed %d state kept in %s\n", seed, r.dir)
			continue
		}
		fmt.Printf("crashchaos: seed %d ok (%d kills, %d jobs, %d acked)\n",
			seed, r.kills, r.jobs, len(r.ledger))
		os.RemoveAll(r.dir)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "crashchaos: %d of %d seeds failed\n", failures, *seeds)
		os.Exit(1)
	}
	os.RemoveAll(dir)
	fmt.Printf("crashchaos: all %d seeds survived %d kills in %.1fs — no acked-job loss, no duplicate admissions, digests identical\n",
		*seeds, kills, time.Since(start).Seconds())
}

// seedRun is one seeded kill/restart iteration against one journal.
type seedRun struct {
	seed    int64
	bin     string
	dir     string // per-seed scratch: WAL dir, addr file, logs
	jobs    int
	members int // hadard's -clusters
	kills   int
	ledger  map[string]int // acked idempotency key -> job ID
	client  *http.Client
	verbose bool

	rng      *rand.Rand
	proc     *exec.Cmd
	procDone chan error
	addr     string
	out      bytes.Buffer
	deadline time.Time
}

func (r *seedRun) logf(format string, args ...any) {
	if r.verbose {
		fmt.Printf("crashchaos: seed %d: "+format+"\n", append([]any{r.seed}, args...)...)
	}
}

func (r *seedRun) walDir() string { return filepath.Join(r.dir, "wal") }

// run executes the iteration: generate the workload, kill the server
// once or twice mid-drive, then finish cleanly and verify.
func (r *seedRun) run(budget time.Duration) error {
	r.rng = rand.New(rand.NewSource(r.seed))
	r.deadline = time.Now().Add(budget)
	if err := os.MkdirAll(r.walDir(), 0o755); err != nil {
		return err
	}
	// Small jobs so the virtual clock retires them in a handful of
	// rounds; one burst so the queue stays busy while the killer aims.
	jobs, err := loadgen.Generate(loadgen.Config{
		Model: loadgen.Bursty, Jobs: r.jobs, Seed: r.seed,
		BurstSize: r.jobs, BurstGap: 3600,
		MinGPUHours: 0.05, MaxGPUHours: 0.5,
	})
	if err != nil {
		return err
	}
	keyFunc := func(j *job.Job) string { return fmt.Sprintf("s%d-j%d", r.seed, j.ID) }

	kills := 1 + r.rng.Intn(2)
	for k := 0; k < kills; k++ {
		// Alternate the crash mechanism deterministically so both a
		// between-requests SIGKILL and a torn mid-append write appear
		// across the seed sweep.
		tornWrite := (r.seed+int64(k))%2 == 0
		killAfter := -1
		if !tornWrite {
			killAfter = 1 + r.rng.Intn(r.jobs)
		}
		if err := r.startServer(k > 0, tornWrite); err != nil {
			return fmt.Errorf("start %d: %w", k, err)
		}
		if k > 0 {
			if err := r.checkRecovered(); err != nil {
				return fmt.Errorf("after kill %d: %w", k, err)
			}
		}
		target := &httpTarget{run: r, killAfter: killAfter}
		_, driveErr := loadgen.Drive(target, jobs, loadgen.DriveOptions{
			KeyFunc: keyFunc, MaxDuration: time.Until(r.deadline),
		})
		mode := "sigkill"
		if tornWrite {
			mode = "torn-append"
		}
		r.logf("kill %d (%s): drive ended with %v, %d keys acked", k, mode, driveErr, len(r.ledger))
		// The drive usually dies with the server; if the kill point was
		// never reached (everything already acked), kill directly.
		r.killServer()
		if err := r.waitExit(false); err != nil {
			return fmt.Errorf("kill %d: %w", k, err)
		}
		r.kills++
	}

	// Final leg: recover once more, verify nothing acked was lost, and
	// drive every job to acceptance with no interference.
	if err := r.startServer(true, false); err != nil {
		return fmt.Errorf("final start: %w", err)
	}
	if err := r.checkRecovered(); err != nil {
		return fmt.Errorf("final recovery: %w", err)
	}
	target := &httpTarget{run: r, killAfter: -1}
	if _, err := loadgen.Drive(target, jobs, loadgen.DriveOptions{
		KeyFunc: keyFunc, MaxDuration: time.Until(r.deadline),
	}); err != nil {
		return fmt.Errorf("final drive: %w", err)
	}
	if len(r.ledger) != r.jobs {
		return fmt.Errorf("final drive acked %d of %d keys", len(r.ledger), r.jobs)
	}

	// Every key resubmitted must dedup against the original admission;
	// httpTarget fails the run on any fresh ack or ID mismatch.
	redrive, err := loadgen.Drive(target, jobs, loadgen.DriveOptions{
		KeyFunc: keyFunc, MaxDuration: time.Until(r.deadline),
	})
	if err != nil {
		return fmt.Errorf("dedup redrive: %w", err)
	}
	if redrive.Submitted != 0 || redrive.Deduped != r.jobs {
		return fmt.Errorf("dedup redrive admitted %d fresh jobs, deduped %d (want 0/%d)",
			redrive.Submitted, redrive.Deduped, r.jobs)
	}

	// Wait for every job to reach a terminal phase so the engine goes
	// idle and the digest stops advancing, then capture it.
	var snap snapDoc
	for {
		s, err := r.snapshot()
		if err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		if s.Completed+s.Cancelled >= r.jobs {
			snap = s
			break
		}
		if time.Now().After(r.deadline) {
			return fmt.Errorf("only %d of %d jobs terminal at deadline", s.Completed+s.Cancelled, r.jobs)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Graceful SIGTERM: drain, flush, final checkpoint, exit 0.
	if err := r.proc.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("sigterm: %w", err)
	}
	if err := r.waitExit(true); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}

	return r.verifyJournal(snap)
}

// verifyJournal replays the whole journal on a fresh federation and checks
// it against the client-side ledger and the live run's final digest.
func (r *seedRun) verifyJournal(snap snapDoc) error {
	fed, err := r.serverFederation()
	if err != nil {
		return err
	}
	vr, err := service.VerifyFedWAL(fed, r.walDir())
	if err != nil {
		return fmt.Errorf("journal replay: %w", err)
	}
	r.logf("verify: %d records, %d rounds, %d submits, digest %#x", vr.Records, vr.Rounds, vr.Submitted, vr.Digest)
	if vr.Digest != snap.Digest {
		return fmt.Errorf("replay digest %#x != live digest %#x", vr.Digest, snap.Digest)
	}
	if vr.Submitted != r.jobs || len(vr.Jobs) != r.jobs {
		return fmt.Errorf("journal admitted %d jobs under %d keys, want %d — duplicate or lost admission",
			vr.Submitted, len(vr.Jobs), r.jobs)
	}
	seen := make(map[int]bool, len(vr.Jobs))
	for key, id := range r.ledger {
		got, ok := vr.Jobs[key]
		if !ok {
			return fmt.Errorf("acked key %q missing from journal replay", key)
		}
		if got != id {
			return fmt.Errorf("key %q acked as job %d but journal replays job %d", key, id, got)
		}
		if seen[got] {
			return fmt.Errorf("job ID %d admitted under two keys", got)
		}
		seen[got] = true
	}
	if vr.TruncatedBytes != 0 {
		return fmt.Errorf("final journal still has a %d-byte torn tail after recovery", vr.TruncatedBytes)
	}
	return nil
}

// serverRouter is the -router every federated hadard under test gets.
var serverRouter = federation.LeastQueue{}

// serverPolicy is the -scheduler every hadard under test gets.
const serverPolicy = "ref-srtf"

// serverFederation mirrors the federation the hadard invocation builds;
// the replay must run against an identical one or the replayed digests
// diverge for configuration rather than correctness reasons.
func (r *seedRun) serverFederation() (*federation.Federation, error) {
	pol, err := experiments.LookupPolicy(serverPolicy)
	if err != nil {
		return nil, err
	}
	opts := sim.DefaultOptions()
	opts.RoundLength = 6 * 60
	opts.Validate = true
	members := make([]federation.MemberConfig, r.members)
	for i := range members {
		members[i] = federation.MemberConfig{
			Cluster: experiments.SimCluster(), Scheduler: pol.New(), Sim: opts,
		}
	}
	return federation.New(members, serverRouter, federation.Options{Validate: true})
}

// startServer boots hadard on a fresh port, with -recover after the
// first boot and the torn-write failpoint armed when asked. It waits
// until the server publishes its bound address and serves traffic.
func (r *seedRun) startServer(recover, tornWrite bool) error {
	addrFile := filepath.Join(r.dir, "addr")
	if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
		return err
	}
	args := []string{
		"-scheduler", serverPolicy, "-cluster", "sim", "-clock", "virtual",
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-wal", r.walDir(), "-fsync", "off", "-checkpoint-every", "16",
		"-queue", "64",
		"-clusters", fmt.Sprint(r.members), "-router", serverRouter.Name(),
	}
	if recover {
		args = append(args, "-recover")
	}
	cmd := exec.Command(r.bin, args...)
	cmd.Env = os.Environ()
	if tornWrite {
		// Tear the append that crosses a point a little past the
		// journal's current end; round records flow continuously, so
		// this fires while the drive is in flight.
		size := int64(0)
		if st, err := os.Stat(filepath.Join(r.walDir(), "journal.wal")); err == nil {
			size = st.Size()
		}
		after := size + int64(100+r.rng.Intn(2500))
		cmd.Env = append(cmd.Env, fmt.Sprintf("HADARD_CRASH_AFTER_BYTES=%d", after))
		r.logf("arming torn write past byte %d", after)
	}
	fmt.Fprintf(&r.out, "--- start recover=%v torn=%v ---\n", recover, tornWrite)
	cmd.Stdout = &r.out
	cmd.Stderr = &r.out
	if err := cmd.Start(); err != nil {
		return err
	}
	r.proc = cmd
	r.procDone = make(chan error, 1)
	go func() { r.procDone <- cmd.Wait() }()

	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			r.addr = "http://" + string(b)
			return nil
		}
		select {
		case err := <-r.procDone:
			r.procDone <- err
			return fmt.Errorf("server exited before binding: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(r.deadline) {
			return fmt.Errorf("server never published its address")
		}
	}
}

// killServer SIGKILLs the process if it is still running; exits from
// the torn-write failpoint land here as a no-op.
func (r *seedRun) killServer() {
	select {
	case err := <-r.procDone:
		r.procDone <- err
	default:
		r.proc.Process.Kill()
	}
}

// waitExit waits for the current process to die. A clean exit is
// required only for the graceful SIGTERM leg; kills may surface as
// signal deaths or the failpoint's exit 137.
func (r *seedRun) waitExit(clean bool) error {
	select {
	case err := <-r.procDone:
		if clean && err != nil {
			return fmt.Errorf("server exited uncleanly: %v", err)
		}
		return nil
	case <-time.After(time.Until(r.deadline)):
		r.proc.Process.Kill()
		return fmt.Errorf("server did not exit before the deadline")
	}
}

// snapDoc is the slice of /api/snapshot the harness reads.
type snapDoc struct {
	Completed int    `json:"completed"`
	Cancelled int    `json:"cancelled"`
	Digest    uint64 `json:"digest"`
}

func (r *seedRun) snapshot() (snapDoc, error) {
	var doc snapDoc
	resp, err := r.client.Get(r.addr + "/api/snapshot")
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("snapshot status %d", resp.StatusCode)
	}
	return doc, json.NewDecoder(resp.Body).Decode(&doc)
}

// checkRecovered asserts zero acked-job loss right after a restart:
// every admission the client has seen acknowledged must exist in the
// recovered service, in some lifecycle phase.
func (r *seedRun) checkRecovered() error {
	for key, id := range r.ledger {
		resp, err := r.client.Get(fmt.Sprintf("%s/api/jobs/%d", r.addr, id))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("acked job %d (key %q) lost in recovery: status %d", id, key, resp.StatusCode)
		}
	}
	r.logf("recovery holds all %d acked jobs", len(r.ledger))
	return nil
}

// httpTarget adapts hadard's HTTP API to loadgen's KeyedTarget,
// maintaining the client-side ledger and optionally pulling the
// trigger after a seed-chosen number of acknowledgements.
type httpTarget struct {
	run       *seedRun
	killAfter int // SIGKILL after this many acks this drive; -1 = never
	acks      int
}

// Submit satisfies loadgen.Target; the harness always drives keyed.
func (t *httpTarget) Submit(j *job.Job) error {
	_, _, err := t.SubmitKeyed("", j)
	return err
}

// SubmitKeyed posts the job spec with its idempotency key and records
// the acknowledged admission. HTTP 429 and 503 are translated back to
// the service error types so loadgen's retry policy applies; transport
// errors mean the server died and abort the drive.
func (t *httpTarget) SubmitKeyed(key string, j *job.Job) (int, bool, error) {
	// Invert trace.FromDemand: gpuHours = TotalIters / (3600 * best
	// throughput). The server rebuilds an equivalent job from the spec.
	_, best, ok := j.BestType()
	if !ok {
		return 0, false, fmt.Errorf("job %d has no usable GPU type", j.ID)
	}
	body, err := json.Marshal(map[string]any{
		"key": key, "model": j.Model, "workers": j.Workers,
		"gpu_hours": j.TotalIters() / (3600 * best),
	})
	if err != nil {
		return 0, false, err
	}
	resp, err := t.run.client.Post(t.run.addr+"/api/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, false, fmt.Errorf("server gone: %w", err)
	}
	defer resp.Body.Close()
	var out struct {
		ID      int    `json:"id"`
		Deduped bool   `json:"deduped"`
		Error   string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, false, fmt.Errorf("server gone mid-response: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusAccepted, http.StatusOK:
	case http.StatusTooManyRequests:
		// Retry promptly regardless of the server's polite hint; the
		// harness is the only client.
		return 0, false, &service.BusyError{RetryAfter: 5 * time.Millisecond}
	case http.StatusServiceUnavailable:
		// Verdict timeout or shutdown race: ambiguous, safe to retry
		// because every submission carries a key.
		return 0, false, &service.DeadError{}
	default:
		return 0, false, fmt.Errorf("submit key %q: status %d: %s", key, resp.StatusCode, out.Error)
	}
	if prev, acked := t.run.ledger[key]; acked && (!out.Deduped || out.ID != prev) {
		return 0, false, fmt.Errorf("duplicate admission: key %q was job %d, now job %d (deduped=%v)",
			key, prev, out.ID, out.Deduped)
	}
	t.run.ledger[key] = out.ID
	t.acks++
	if t.killAfter > 0 && t.acks >= t.killAfter {
		t.killAfter = -1
		t.run.logf("SIGKILL after ack %d", t.acks)
		t.run.killServer()
	}
	return out.ID, out.Deduped, nil
}
