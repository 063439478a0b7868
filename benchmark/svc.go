package benchmark

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/web"
)

// svcRun is one freshly started scheduler service behind the live web
// handler: what a hadard operator has by the time the first request
// arrives.
type svcRun struct {
	w     Workload
	c     *cluster.Cluster
	hadar *core.Scheduler
	dec   *timedScheduler // nil unless traced
	svc   *service.Service
	h     http.Handler
	opts  service.Options
	dir   string // journal directory; "" without durability
	subs  []submission
}

// serviceOptions are the options hadard runs with on the virtual clock.
func serviceOptions(dir string, recover bool) service.Options {
	opts := service.Options{Sim: sim.DefaultOptions(), QueueDepth: 64, Clock: service.VirtualClock}
	if dir != "" {
		opts.WAL = &service.WALConfig{Dir: dir, Policy: wal.SyncAlways, CheckpointEvery: 256, Recover: recover}
	}
	return opts
}

// setupSvc generates the submissions, creates the journal directory
// under tmpRoot when the workload is durable, and builds and starts
// the service and its handler.
func (w Workload) setupSvc(seed int64, tmpRoot string, tr *Tracer) (*svcRun, error) {
	r := &svcRun{w: w, c: w.cluster(), subs: w.submissions(seed)}
	if w.Durable {
		dir, err := os.MkdirTemp(tmpRoot, "wal-")
		if err != nil {
			return nil, err
		}
		r.dir = dir
	}
	r.opts = serviceOptions(r.dir, false)
	copts := core.DefaultOptions()
	r.hadar = core.New(copts)
	var s sched.Scheduler = r.hadar
	if tr != nil {
		r.dec = newTimedScheduler(r.hadar, tr, copts.DPJobLimit)
		s = r.dec
	}
	svc, err := service.New(r.c, s, r.opts)
	if err != nil {
		r.cleanup()
		return nil, err
	}
	svc.Start()
	r.svc = svc
	r.h = web.NewLiveServer(svc).Handler()
	return r, nil
}

// cleanup removes the journal directory.
func (r *svcRun) cleanup() {
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// discard stops a service that was set up only to time the set-up.
func (r *svcRun) discard() {
	r.svc.Kill()
	r.svc.Stop() //nolint:errcheck // ErrKilled by construction
	r.cleanup()
}

// svcRep is what one repetition of a service workload measured and
// produced.
type svcRep struct {
	submitS, driveS, stopS, recoverS float64
	// submitSegS are the durations of segmentsPerPhase equal shares of
	// the post order; postUS is the latency of the accepted POST at each
	// position of it (0: a duplicate, or sent past the web handler).
	submitSegS, postUS              []float64
	directUS                        []float64 // accepted Service.SubmitKeyed calls (traced only)
	snapGetUS, jobGetUS             []float64
	snapshotBytes                   int
	mem                             memDelta
	attempted, failed               int
	accepted, deduped, busy, rounds int64
	dedupedReplies                  int64
	completed                       int
	inconsistencies                 int
	recoverCkptMS, verifyMS         float64
	replayed                        int
	startNS, endNS                  int64
}

func (r svcRep) wallS() float64 { return r.driveS + r.stopS + r.recoverS }

// timed cuts the repetition into its segments: the shares of the submit
// phase, the wait for the last job, the stop (or kill) and the recovery.
func (r svcRep) timed() timedRep {
	wall := append(append([]float64(nil), r.submitSegS...), r.driveS-r.submitS, r.stopS, r.recoverS)
	return timedRep{wallSegS: wall, opsSegS: r.submitSegS, ops: int(r.accepted), opUS: r.postUS, allocMB: r.mem.allocMB}
}

// identity is what must repeat exactly from repetition to repetition.
func (r svcRep) identity() string {
	return fmt.Sprintf("accepted=%d deduped=%d completed=%d", r.accepted, r.deduped, r.completed)
}

// maxBusyRetries is how often a client retries a 429 before the
// request counts as failed.
const maxBusyRetries = 5

// completionDeadline bounds the wait for the last job to finish.
const completionDeadline = 60 * time.Second

// post sends one submission through the handler and retries after the
// server's Retry-After while the admission queue is full.
func (r *svcRun) post(body []byte) (code int, took time.Duration) {
	for busy := 0; ; busy++ {
		req := httptest.NewRequest(http.MethodPost, "/api/jobs", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		start := time.Now()
		r.h.ServeHTTP(rec, req)
		took = time.Since(start)
		if rec.Code != http.StatusTooManyRequests || busy == maxBusyRetries {
			return rec.Code, took
		}
		secs, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil {
			secs = 1
		}
		time.Sleep(time.Duration(secs) * time.Second)
	}
}

// get sends one GET through the handler.
func (r *svcRun) get(path string) (code, size int, took time.Duration) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	start := time.Now()
	r.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Len(), time.Since(start)
}

// writerLog is what one writer client saw.
type writerLog struct {
	directUS       []float64
	failed         int
	dedupedReplies int64
}

// run is one repetition: drive, then for a durable workload recover.
func (r *svcRun) run(tr *Tracer) (svcRep, error) {
	rep, err := r.drive(tr)
	if err != nil || !r.w.Durable {
		return rep, err
	}
	return r.recover(tr, rep)
}

// drive sends the workload's requests from its closed-loop clients,
// waits until every job has completed, and shuts the service down the
// way the workload says: Stop, or Kill for the crash a durable workload
// recovers from. With a tracer every other submission bypasses the web
// handler and goes straight to Service.SubmitKeyed, so the two layers
// can be told apart.
func (r *svcRun) drive(tr *Tracer) (svcRep, error) {
	order := r.w.postOrder()
	share := (len(order) + segmentsPerPhase - 1) / segmentsPerPhase
	// Each writer fills in the positions it claims; no two share one.
	rep := svcRep{postUS: make([]float64, len(order))}
	marks := make([]time.Time, (len(order)+share-1)/share)
	var next, posted atomic.Int64
	logs := make([]writerLog, r.w.Writers)
	stopReader := make(chan struct{})
	var readers sync.WaitGroup
	runtime.GC()
	before := readMem()
	t0 := time.Now()

	if r.w.Reader {
		readers.Add(1)
		go func() {
			defer readers.Done()
			r.read(tr, stopReader, order, &posted, &rep)
		}()
	}
	var writers sync.WaitGroup
	for c := range logs {
		writers.Add(1)
		go func(log *writerLog) {
			defer writers.Done()
			for {
				pos := int(next.Add(1)) - 1
				if pos >= len(order) {
					return
				}
				if pos%share == 0 {
					marks[pos/share] = time.Now()
				}
				rep.postUS[pos] = r.submit(tr, pos, r.subs[order[pos]], log)
				posted.Add(1)
			}
		}(&logs[c])
	}
	writers.Wait()
	t1 := time.Now()
	deadline := t1.Add(completionDeadline)
	for r.svc.Snapshot().Completed < r.w.Jobs && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	t2 := time.Now()
	close(stopReader)
	readers.Wait()

	stats := r.svc.Stats()
	rep.completed = r.svc.Snapshot().Completed
	var stopErr error
	if r.w.Durable {
		r.svc.Kill()
		if _, err := r.svc.Stop(); !errors.Is(err, service.ErrKilled) {
			stopErr = fmt.Errorf("stop after kill: got %v, want ErrKilled", err)
		}
	} else if _, err := r.svc.Stop(); err != nil {
		stopErr = fmt.Errorf("stop: %w", err)
	}
	t3 := time.Now()
	tr.Add("service.stop", -1, 0, t2, t3)
	rep.mem = memSince(before)
	if stopErr != nil {
		return rep, stopErr
	}

	for _, log := range logs {
		rep.directUS = append(rep.directUS, log.directUS...)
		rep.failed += log.failed
		rep.dedupedReplies += log.dedupedReplies
	}
	rep.attempted += len(order)
	rep.failed += r.w.Jobs - rep.completed
	for i, m := range marks {
		end := t1
		if i+1 < len(marks) {
			end = marks[i+1]
		}
		rep.submitSegS = append(rep.submitSegS, end.Sub(m).Seconds())
	}
	rep.submitS = t1.Sub(marks[0]).Seconds()
	rep.driveS = t2.Sub(marks[0]).Seconds()
	rep.stopS = t3.Sub(t2).Seconds()
	rep.accepted, rep.deduped, rep.rounds, rep.busy = stats.Accepted, stats.Deduped, stats.Rounds, stats.RejectedBusy
	rep.inconsistencies = r.hadar.Inconsistencies()
	if tr != nil {
		rep.startNS, rep.endNS = tr.ns(t0), tr.ns(t3)
	}
	if rep.completed != r.w.Jobs {
		return rep, fmt.Errorf("%d of %d jobs completed within %v", rep.completed, r.w.Jobs, completionDeadline)
	}
	if want := int64(len(order) - r.w.Jobs); rep.accepted != int64(r.w.Jobs) || rep.deduped != want || rep.dedupedReplies != want {
		return rep, fmt.Errorf("accepted=%d deduped=%d deduped replies=%d, want %d, %d, %d",
			rep.accepted, rep.deduped, rep.dedupedReplies, r.w.Jobs, want, want)
	}
	return rep, nil
}

// submit sends the submission claimed at position pos, logs the
// outcome, and returns the latency of a POST the web handler accepted
// (0 otherwise).
func (r *svcRun) submit(tr *Tracer, pos int, s submission, log *writerLog) (acceptedUS float64) {
	if tr != nil && pos%2 == 1 {
		j, err := s.job()
		if err != nil {
			log.failed++
			return 0
		}
		start := time.Now()
		_, deduped, err := r.svc.SubmitKeyed(s.key, j)
		end := time.Now()
		tr.Add("service.submit", -1, int64(pos), start, end)
		switch {
		case err != nil:
			log.failed++
		case deduped:
			log.dedupedReplies++
		default:
			log.directUS = append(log.directUS, micros(end.Sub(start)))
		}
		return 0
	}
	start := time.Now()
	code, took := r.post(s.body)
	tr.Add("web.submit", -1, int64(pos), start, time.Now())
	switch code {
	case http.StatusAccepted:
		return micros(took)
	case http.StatusOK:
		log.dedupedReplies++
	default:
		log.failed++
	}
	return 0
}

// read is the soak workload's reader client: GET /api/snapshot, pause,
// GET /api/jobs/{id} for a job already posted, pause, until stopped.
// posted counts finished posts; with several writers the last few
// positions below it may still be in flight, so the reader stays
// behind them.
func (r *svcRun) read(tr *Tracer, stop <-chan struct{}, order []int, posted *atomic.Int64, rep *svcRep) {
	const pause = time.Millisecond
	for n := 0; ; n++ {
		select {
		case <-stop:
			return
		default:
		}
		start := time.Now()
		code, size, took := r.get("/api/snapshot")
		tr.Add("web.snapshot_get", -1, int64(n), start, time.Now())
		rep.attempted++
		if code == http.StatusOK {
			rep.snapGetUS = append(rep.snapGetUS, micros(took))
			rep.snapshotBytes = size
		} else {
			rep.failed++
		}
		time.Sleep(pause)
		if settled := int(posted.Load()) - r.w.Writers; settled > 0 {
			id := r.subs[order[n%settled]].id
			start := time.Now()
			code, _, took := r.get("/api/jobs/" + strconv.Itoa(id))
			tr.Add("web.job_get", -1, int64(n), start, time.Now())
			rep.attempted++
			if code == http.StatusOK {
				rep.jobGetUS = append(rep.jobGetUS, micros(took))
			} else {
				rep.failed++
			}
		}
		time.Sleep(pause)
	}
}

// recover restarts the killed service from its journal alone — the
// checkpoint is removed, so every record is replayed and every round's
// digest verified — and then proves durability off the clock: every
// acknowledged key must be answered from the recovered ledger, the
// recovered service must stop cleanly, and the journal must verify.
// With a tracer the checkpoint-plus-tail recovery is timed first, on a
// copy of the directory.
func (r *svcRun) recover(tr *Tracer, rep svcRep) (svcRep, error) {
	if tr != nil {
		ms, err := r.recoverFromCheckpoint()
		if err != nil {
			return rep, err
		}
		rep.recoverCkptMS = ms
	}
	if err := os.Remove(filepath.Join(r.dir, "checkpoint.ckpt")); err != nil && !errors.Is(err, os.ErrNotExist) {
		return rep, err
	}
	start := time.Now()
	rec, err := service.New(r.c, core.New(core.DefaultOptions()), serviceOptions(r.dir, true))
	end := time.Now()
	if err != nil {
		return rep, fmt.Errorf("recover: %w", err)
	}
	tr.Add("service.recover", -1, 0, start, end)
	rep.recoverS = end.Sub(start).Seconds()
	rep.replayed = rec.Recovery().Replayed
	rec.Start()
	for _, s := range r.subs {
		j, err := s.job()
		if err != nil {
			return rep, err
		}
		id, deduped, err := rec.SubmitKeyed(s.key, j)
		if err != nil || !deduped || id != s.id {
			rec.Kill()
			rec.Stop() //nolint:errcheck // ErrKilled by construction
			return rep, fmt.Errorf("after recovery key %s: id=%d deduped=%v err=%v, want id=%d from the ledger",
				s.key, id, deduped, err, s.id)
		}
	}
	if _, err := rec.Stop(); err != nil {
		return rep, fmt.Errorf("stop recovered service: %w", err)
	}
	start = time.Now()
	res, err := service.VerifyWAL(r.c, core.New(core.DefaultOptions()), r.opts.Sim, r.dir)
	rep.verifyMS = millis(time.Since(start))
	if err != nil {
		return rep, fmt.Errorf("verify journal: %w", err)
	}
	if res.Submitted != r.w.Jobs || len(res.Jobs) != r.w.Jobs {
		return rep, fmt.Errorf("journal holds %d submissions and %d keys, want %d", res.Submitted, len(res.Jobs), r.w.Jobs)
	}
	return rep, nil
}

// recoverFromCheckpoint times the recovery an operator normally gets —
// latest checkpoint plus the journal tail — on a copy of the journal
// directory, and returns it in milliseconds.
func (r *svcRun) recoverFromCheckpoint() (float64, error) {
	dir, err := os.MkdirTemp(filepath.Dir(r.dir), "wal-ckpt-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	for _, name := range []string{"journal.wal", "checkpoint.ckpt"} {
		// A short run may not have reached its first checkpoint yet.
		if err := copyFile(filepath.Join(r.dir, name), filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return 0, err
		}
	}
	start := time.Now()
	rec, err := service.New(r.c, core.New(core.DefaultOptions()), serviceOptions(dir, true))
	took := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("recover from checkpoint: %w", err)
	}
	rec.Kill()
	rec.Stop() //nolint:errcheck // ErrKilled by construction
	return millis(took), nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
