package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/wal"
)

func walOptions(dir string, cfg WALConfig) Options {
	cfg.Dir = dir
	return Options{WAL: &cfg}
}

// overWALShapes runs one durability case on every walShapes entry: the
// journal, the checkpoint and recovery are the same code for one member
// and for many, and every case must hold for both.
func overWALShapes(t *testing.T, body func(t *testing.T, sh shape)) {
	for _, sh := range walShapes() {
		t.Run(sh.String(), func(t *testing.T) { body(t, sh) })
	}
}

// memberDigests is the per-member digest chain heads of a snapshot.
func memberDigests(s *federation.FedSnapshot) []uint64 {
	out := make([]uint64, len(s.Members))
	for i, m := range s.Members {
		out[i] = m.Snap.Digest
	}
	return out
}

// copyWALDir copies the journal and checkpoint — what a crash leaves —
// into a fresh directory.
func copyWALDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range []string{"journal.wal", "checkpoint.ckpt"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestServiceWALKillAndRecover is the core durability contract: every
// submission acknowledged before a crash survives recovery, the
// recovered engine's schedule digest matches an uninterrupted replay of
// the journal, and the idempotency ledger still answers retried keys.
func TestServiceWALKillAndRecover(t *testing.T) { overWALShapes(t, caseWALKillAndRecover) }

func caseWALKillAndRecover(t *testing.T, sh shape) {
	dir := t.TempDir()
	svc := sh.service(t, walOptions(dir, WALConfig{Policy: wal.SyncOff}))
	svc.Start()

	acked := make(map[string]int)
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("key-%d", i)
		id, deduped, err := svc.SubmitKeyed(key, simpleJob(i, 1+i%2, 1e8))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if deduped {
			t.Fatalf("fresh key %q reported deduped", key)
		}
		acked[key] = id
	}
	if err := svc.Cancel(acked["key-3"]); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	// A cancel takes effect at the boundary after it is journaled. Wait
	// for that boundary: a Kill landing before it would (correctly)
	// recover the job still active with its cancel pending, which is not
	// what the phase check below is about.
	waitFor(t, svc, "some rounds and the cancel applied", func(s *federation.FedSnapshot) bool {
		return rounds(s) >= 3 && phaseOf(s, acked["key-3"]) == "cancelled"
	})

	svc.Kill()
	if _, err := svc.Stop(); !errors.Is(err, ErrKilled) {
		t.Fatalf("Stop after Kill = %v, want ErrKilled", err)
	}

	rec := sh.service(t, walOptions(dir, WALConfig{Policy: wal.SyncOff, Recover: true}))
	info := rec.Recovery()
	if info == nil {
		t.Fatal("recovered service has no Recovery info")
	}
	if info.Replayed == 0 && info.CheckpointSeq == 0 {
		t.Errorf("recovery info %+v shows nothing restored; journal should not be empty", info)
	}
	snap := rec.Snapshot()
	for key, id := range acked {
		if phaseOf(snap, id) == "" {
			t.Errorf("acked job %d (%s) lost by recovery", id, key)
		}
	}
	if phase := phaseOf(snap, acked["key-3"]); phase != "cancelled" {
		t.Errorf("cancelled job recovered in phase %q", phase)
	}

	// Retrying an acked key after the crash must dedup, not duplicate.
	rec.Start()
	id, deduped, err := rec.SubmitKeyed("key-0", simpleJob(0, 1, 1e8))
	if err != nil || !deduped || id != acked["key-0"] {
		t.Errorf("retried key-0 = (%d, %v, %v), want (%d, true, nil)", id, deduped, err, acked["key-0"])
	}
	if st := rec.Stats(); st.Deduped != 1 {
		t.Errorf("Stats.Deduped = %d, want 1", st.Deduped)
	}

	// Withdraw the (effectively immortal) jobs so the recovered run
	// drains quickly; the cancels are journaled ops like any other.
	for key, jobID := range acked {
		if key == "key-3" {
			continue // already cancelled before the crash
		}
		if err := rec.Cancel(jobID); err != nil {
			t.Fatalf("cancel %s after recovery: %v", key, err)
		}
	}
	waitFor(t, rec, "recovered run drains", drained)
	if _, err := rec.Stop(); err != nil {
		t.Fatalf("stop recovered service: %v", err)
	}

	// The journal is the canonical operation sequence; replaying it on
	// a fresh federation is the uninterrupted run. Its digest must equal
	// the crashed-and-recovered service's final digest.
	res := sh.verify(t, dir)
	if got := rec.Snapshot().Digest; res.Digest != got {
		t.Errorf("uninterrupted replay digest %#x, recovered service %#x", res.Digest, got)
	}
	if res.Submitted != len(acked) {
		t.Errorf("journal has %d submissions, want %d", res.Submitted, len(acked))
	}
	if res.Cancelled != len(acked) {
		t.Errorf("journal has %d cancellations, want %d", res.Cancelled, len(acked))
	}
	for key, id := range acked {
		if res.Jobs[key] != id {
			t.Errorf("journal ledger %q = %d, want %d", key, res.Jobs[key], id)
		}
	}
}

// TestFedServiceWALKillAndRecover recovers one crash image twice — from
// the checkpoint plus the journal tail, and from the whole journal with
// the checkpoint removed — and requires both to reach the live run's
// per-member digests, answer every acknowledged key from the ledger,
// and keep routing and scheduling identically afterwards.
func TestFedServiceWALKillAndRecover(t *testing.T) { overWALShapes(t, caseWALRecoverBothWays) }

func caseWALRecoverBothWays(t *testing.T, sh shape) {
	dir := t.TempDir()
	svc := sh.service(t, walOptions(dir, WALConfig{Policy: wal.SyncAlways, CheckpointEvery: 8}))
	svc.Start()
	acked := make(map[string]int)
	for i := 0; i < 9; i++ {
		key := fmt.Sprintf("key-%d", i)
		id, _, err := svc.SubmitKeyed(key, simpleJob(i, 1+i%2, float64(20000+5000*i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		acked[key] = id
	}
	waitFor(t, svc, "a few completions", func(s *federation.FedSnapshot) bool { return s.Completed >= 3 })
	svc.Kill()
	svc.Stop()
	// Kill lands between loop iterations and the loop publishes before
	// it appends, so the last published snapshot is the journaled state.
	live := svc.Snapshot()

	tail, full := copyWALDir(t, dir), copyWALDir(t, dir)
	if err := os.Remove(checkpointPath(full)); err != nil {
		t.Fatalf("crash image has no checkpoint to remove: %v", err)
	}
	var final [][]uint64
	for _, image := range []struct {
		name, dir string
		fromCkpt  bool
	}{{"checkpoint+tail", tail, true}, {"full journal", full, false}} {
		rec := sh.service(t, walOptions(image.dir, WALConfig{Policy: wal.SyncAlways, Recover: true}))
		info := rec.Recovery()
		if (info.CheckpointSeq > 0) != image.fromCkpt {
			t.Errorf("%s: recovery %+v, want from checkpoint = %v", image.name, info, image.fromCkpt)
		}
		if got, want := memberDigests(rec.Snapshot()), memberDigests(live); !slices.Equal(got, want) {
			t.Errorf("%s: recovered member digests %x, live run %x", image.name, got, want)
		}
		rec.Start()
		for key, want := range acked {
			if id, deduped, err := rec.SubmitKeyed(key, simpleJob(100, 1, 100)); err != nil || !deduped || id != want {
				t.Errorf("%s: resubmitted %s = (%d, %v, %v), want (%d, true, nil)", image.name, key, id, deduped, err, want)
			}
		}
		// Then the same three fresh jobs, one at a time into an idle
		// federation, so what routes and schedules them is the recovered
		// state alone — cursor, clocks, member history — not timing.
		waitFor(t, rec, "the recovered backlog to drain", func(s *federation.FedSnapshot) bool {
			return s.Completed == 9 && drained(s)
		})
		for i := 9; i < 12; i++ {
			if err := rec.Submit(simpleJob(i, 1, 30000)); err != nil {
				t.Fatalf("%s: submit %d after recovery: %v", image.name, i, err)
			}
			waitFor(t, rec, "the job to finish", func(s *federation.FedSnapshot) bool { return phaseOf(s, i) == "finished" })
		}
		waitCompleted(t, rec, 12)
		if _, err := rec.Stop(); err != nil {
			t.Fatalf("%s: stop: %v", image.name, err)
		}
		if res := sh.verify(t, image.dir); res.Digest != rec.Snapshot().Digest {
			t.Errorf("%s: replay digest %#x, recovered service %#x", image.name, res.Digest, rec.Snapshot().Digest)
		}
		final = append(final, memberDigests(rec.Snapshot()))
	}
	if !slices.Equal(final[0], final[1]) {
		t.Errorf("the two recoveries diverged afterwards: %x vs %x", final[0], final[1])
	}
}

// TestServiceWALCheckpointBoundsReplay forces a checkpoint after every
// record and checks recovery starts from it instead of replaying the
// whole journal.
func TestServiceWALCheckpointBoundsReplay(t *testing.T) {
	overWALShapes(t, func(t *testing.T, sh shape) {
		dir := t.TempDir()
		svc := sh.service(t, walOptions(dir, WALConfig{Policy: wal.SyncAlways, CheckpointEvery: 1}))
		svc.Start()
		for i := 0; i < 4; i++ {
			if err := svc.Submit(simpleJob(i, 1, 20000)); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, svc, "rounds with checkpoints", func(s *federation.FedSnapshot) bool { return rounds(s) >= 5 })
		svc.Kill()
		svc.Stop()

		rec := sh.service(t, walOptions(dir, WALConfig{Policy: wal.SyncAlways, Recover: true}))
		info := rec.Recovery()
		if info.CheckpointSeq == 0 {
			t.Error("recovery did not use the checkpoint")
		}
		snap := rec.Snapshot()
		for i := 0; i < 4; i++ {
			if phaseOf(snap, i) == "" {
				t.Errorf("job %d lost across checkpointed recovery", i)
			}
		}
		rec.Start()
		waitFor(t, rec, "drain", drained)
		if _, err := rec.Stop(); err != nil {
			t.Fatal(err)
		}
		if res, got := sh.verify(t, dir), rec.Snapshot().Digest; res.Digest != got {
			t.Errorf("replay digest %#x != recovered digest %#x", res.Digest, got)
		}
	})
}

// TestServiceWALTornTailRecovery damages the journal tail the way a
// kill mid-write would and checks recovery truncates and resumes.
func TestServiceWALTornTailRecovery(t *testing.T) {
	overWALShapes(t, func(t *testing.T, sh shape) {
		dir := t.TempDir()
		svc := sh.service(t, walOptions(dir, WALConfig{Policy: wal.SyncOff}))
		svc.Start()
		for i := 0; i < 3; i++ {
			if err := svc.Submit(simpleJob(i, 1, 5000)); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, svc, "work", func(s *federation.FedSnapshot) bool { return rounds(s) >= 2 })
		svc.Kill()
		svc.Stop()

		// Simulate a torn final frame: half a frame header plus garbage.
		f, err := os.OpenFile(journalPath(dir), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{42, 0, 0}); err != nil {
			t.Fatal(err)
		}
		f.Close()

		rec := sh.service(t, walOptions(dir, WALConfig{Policy: wal.SyncOff, Recover: true}))
		if rec.Recovery().TruncatedBytes == 0 {
			t.Error("recovery did not report the torn tail")
		}
		snap := rec.Snapshot()
		for i := 0; i < 3; i++ {
			if phaseOf(snap, i) == "" {
				t.Errorf("job %d lost to the torn tail", i)
			}
		}
		rec.Start()
		waitFor(t, rec, "drain", drained)
		if _, err := rec.Stop(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestServiceWALCorruptCheckpointFallsBack flips a checkpoint byte and
// checks recovery falls back to a full-journal replay.
func TestServiceWALCorruptCheckpointFallsBack(t *testing.T) {
	overWALShapes(t, func(t *testing.T, sh shape) {
		dir := t.TempDir()
		svc := sh.service(t, walOptions(dir, WALConfig{Policy: wal.SyncAlways, CheckpointEvery: 1}))
		svc.Start()
		for i := 0; i < 3; i++ {
			if err := svc.Submit(simpleJob(i, 1, 20000)); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, svc, "checkpointed rounds", func(s *federation.FedSnapshot) bool { return rounds(s) >= 3 })
		svc.Kill()
		svc.Stop()

		data, err := os.ReadFile(checkpointPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(checkpointPath(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}

		rec := sh.service(t, walOptions(dir, WALConfig{Policy: wal.SyncAlways, Recover: true}))
		info := rec.Recovery()
		if !info.CheckpointCorrupt {
			t.Error("recovery did not flag the corrupt checkpoint")
		}
		if info.CheckpointSeq != 0 {
			t.Errorf("CheckpointSeq = %d after corrupt checkpoint, want 0", info.CheckpointSeq)
		}
		snap := rec.Snapshot()
		for i := 0; i < 3; i++ {
			if phaseOf(snap, i) == "" {
				t.Errorf("job %d lost despite full replay", i)
			}
		}
		rec.Stop()
	})
}

// tearFS is the OS with one journal append torn: the fourth record
// written after the header keeps a third of its frame and reports
// ENOSPC, as a disk that filled mid-append would.
// The journal writer stays on the engine goroutine, so no lock.
type tearFS struct{ appends int }

type tearFile struct {
	*os.File
	fs      *tearFS
	journal bool
	header  bool
}

func (t *tearFS) OpenFile(name string, flag int) (wal.File, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return &tearFile{File: f, fs: t, journal: filepath.Base(name) == "journal.wal", header: flag&os.O_TRUNC != 0}, nil
}

func (t *tearFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (t *tearFS) Remove(name string) error { return os.Remove(name) }

func (t *tearFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (f *tearFile) Write(p []byte) (int, error) {
	if !f.journal {
		return f.File.Write(p)
	}
	if f.header { // a fresh journal's first write is its header
		f.header = false
		return f.File.Write(p)
	}
	if f.fs.appends++; f.fs.appends == 4 {
		n, _ := f.File.Write(p[:len(p)/3])
		return n, syscall.ENOSPC
	}
	return f.File.Write(p)
}

// TestServiceWALFailPointCrash tears an append mid-frame: the caller
// whose record tore gets an error (never a false ack), the loop fails
// stop, and recovery preserves every acked job and reports the tail.
func TestServiceWALFailPointCrash(t *testing.T) {
	overWALShapes(t, func(t *testing.T, sh shape) {
		dir := t.TempDir()
		svc := sh.service(t, walOptions(dir, WALConfig{Policy: wal.SyncOff, FS: &tearFS{}}))
		svc.Start()

		var acked []int
		var crashed bool
		for i := 0; i < 10; i++ {
			err := svc.Submit(simpleJob(i, 1, 50000))
			if err == nil {
				acked = append(acked, i)
				continue
			}
			if errors.Is(err, syscall.ENOSPC) || strings.Contains(err.Error(), "journal") || errors.Is(err, ErrStopped) {
				crashed = true
				break
			}
			t.Fatalf("submit %d: unexpected error %v", i, err)
		}
		if !crashed {
			t.Fatal("torn append never fired")
		}
		if _, err := svc.Stop(); err == nil {
			t.Error("Stop after a torn append reported success")
		}

		rec := sh.service(t, walOptions(dir, WALConfig{Policy: wal.SyncOff, Recover: true}))
		if rec.Recovery().TruncatedBytes == 0 {
			t.Error("torn frame left no truncated tail")
		}
		snap := rec.Snapshot()
		for _, id := range acked {
			if phaseOf(snap, id) == "" {
				t.Errorf("acked job %d lost after a torn append", id)
			}
		}
		rec.Stop()
	})
}

// TestServiceWALGroupCommit exercises the deferred-verdict path: under
// SyncGroup every verdict waits for a batch fsync but still arrives.
func TestServiceWALGroupCommit(t *testing.T) {
	overWALShapes(t, func(t *testing.T, sh shape) {
		dir := t.TempDir()
		svc := sh.service(t, walOptions(dir, WALConfig{Policy: wal.SyncGroup, GroupInterval: time.Millisecond}))
		svc.Start()
		errs := make(chan error, 8)
		for i := 0; i < 8; i++ {
			i := i
			go func() { errs <- svc.Submit(simpleJob(i, 1, 5000)) }()
		}
		for i := 0; i < 8; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("group-commit submit: %v", err)
			}
		}
		waitCompleted(t, svc, 8)
		if _, err := svc.Stop(); err != nil {
			t.Fatal(err)
		}
		if res := sh.verify(t, dir); res.Submitted != 8 {
			t.Errorf("journal has %d submissions, want 8", res.Submitted)
		}
	})
}

// TestServiceWALWallClockKillAndRecover runs the wall-paced loop with
// group commit, so its tick and group-timer branches take turns, kills
// it, and recovers with the same clock: every acknowledged key must be
// answered from the recovered ledger, and a replay of the journal must
// reach the recovered service's final digest.
func TestServiceWALWallClockKillAndRecover(t *testing.T) {
	overWALShapes(t, func(t *testing.T, sh shape) {
		dir := t.TempDir()
		opts := func(recover bool) Options {
			o := walOptions(dir, WALConfig{Policy: wal.SyncGroup, GroupInterval: time.Millisecond, Recover: recover})
			o.Clock, o.RoundInterval = WallClock, time.Millisecond
			return o
		}
		svc := sh.service(t, opts(false))
		svc.Start()
		type ack struct {
			key string
			id  int
			err error
		}
		acks := make(chan ack, 8)
		for i := 0; i < 8; i++ {
			i := i
			go func() {
				key := fmt.Sprintf("key-%d", i)
				id, _, err := svc.SubmitKeyed(key, simpleJob(i, 1+i%2, 5e4))
				acks <- ack{key, id, err}
			}()
		}
		acked := make(map[string]int)
		for i := 0; i < 8; i++ {
			a := <-acks
			if a.err != nil {
				t.Fatalf("submit %s: %v", a.key, a.err)
			}
			acked[a.key] = a.id
		}
		waitFor(t, svc, "some wall-paced rounds", func(s *federation.FedSnapshot) bool { return rounds(s) >= 3 })
		svc.Kill()
		if _, err := svc.Stop(); !errors.Is(err, ErrKilled) {
			t.Fatalf("Stop after Kill = %v, want ErrKilled", err)
		}

		rec := sh.service(t, opts(true))
		rec.Start()
		for key, want := range acked {
			id, deduped, err := rec.SubmitKeyed(key, simpleJob(want, 1, 5e4))
			if err != nil || !deduped || id != want {
				t.Errorf("retried %s = (%d, %v, %v), want (%d, true, nil)", key, id, deduped, err, want)
			}
		}
		waitFor(t, rec, "recovered run drains", drained)
		if _, err := rec.Stop(); err != nil {
			t.Fatalf("stop recovered service: %v", err)
		}
		res := sh.verify(t, dir)
		if got := rec.Snapshot().Digest; res.Digest != got {
			t.Errorf("uninterrupted replay digest %#x, recovered service %#x", res.Digest, got)
		}
		if res.Submitted != len(acked) {
			t.Errorf("journal has %d submissions, want %d", res.Submitted, len(acked))
		}
	})
}

// TestServiceWALRefusesExistingJournal: without Recover, New must not
// silently clobber a journal left by a previous run.
func TestServiceWALRefusesExistingJournal(t *testing.T) {
	overWALShapes(t, func(t *testing.T, sh shape) {
		dir := t.TempDir()
		svc := sh.service(t, walOptions(dir, WALConfig{Policy: wal.SyncOff}))
		svc.Start()
		if err := svc.Submit(simpleJob(0, 1, 100)); err != nil {
			t.Fatal(err)
		}
		svc.Stop()
		if _, err := sh.build(t, walOptions(dir, WALConfig{Policy: wal.SyncOff})); err == nil {
			t.Fatal("New overwrote an existing journal without Recover")
		}
	})
}

// TestServiceWALRecoverFreshDir: Recover on an empty directory is a
// fresh start, so operators can always pass -recover.
func TestServiceWALRecoverFreshDir(t *testing.T) {
	overWALShapes(t, func(t *testing.T, sh shape) {
		svc := sh.service(t, walOptions(t.TempDir(), WALConfig{Policy: wal.SyncAlways, Recover: true}))
		svc.Start()
		if err := svc.Submit(simpleJob(0, 1, 1000)); err != nil {
			t.Fatal(err)
		}
		waitCompleted(t, svc, 1)
		if _, err := svc.Stop(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestServiceWALCleanShutdownResume: a graceful Stop checkpoints, and a
// later Recover resumes without replaying anything.
func TestServiceWALCleanShutdownResume(t *testing.T) {
	overWALShapes(t, func(t *testing.T, sh shape) {
		dir := t.TempDir()
		svc := sh.service(t, walOptions(dir, WALConfig{Policy: wal.SyncAlways}))
		svc.Start()
		if err := svc.Submit(simpleJob(0, 2, 1e7)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, svc, "progress", func(s *federation.FedSnapshot) bool { return rounds(s) >= 2 })
		if _, err := svc.Stop(); err != nil {
			t.Fatal(err)
		}

		rec := sh.service(t, walOptions(dir, WALConfig{Policy: wal.SyncAlways, Recover: true}))
		if got := rec.Recovery().Replayed; got != 0 {
			t.Errorf("clean shutdown still replayed %d records", got)
		}
		if phaseOf(rec.Snapshot(), 0) == "" {
			t.Error("job 0 lost across clean shutdown")
		}
		rec.Start()
		if err := rec.Cancel(0); err != nil {
			t.Fatalf("cancel after resume: %v", err)
		}
		waitFor(t, rec, "cancelled", func(s *federation.FedSnapshot) bool { return phaseOf(s, 0) == "cancelled" })
		if _, err := rec.Stop(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestServiceStopBeforeStart(t *testing.T) {
	svc := newTestService(t, Options{})
	if _, err := svc.Stop(); err != nil {
		t.Fatalf("stop before start: %v", err)
	}
	if _, err := svc.Stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}

// TestServiceDeadError: a wedged engine loop (here: never started)
// must not hang callers past RequestTimeout.
func TestServiceDeadError(t *testing.T) {
	svc := newTestService(t, Options{RequestTimeout: 20 * time.Millisecond})
	err := svc.Submit(simpleJob(0, 1, 100))
	var dead *DeadError
	if !errors.As(err, &dead) {
		t.Fatalf("submit on a wedged service = %v, want *DeadError", err)
	}
	if dead.Waited != 20*time.Millisecond {
		t.Errorf("DeadError.Waited = %v, want 20ms", dead.Waited)
	}
	svc.Stop()
}

// TestReusedVerdictWaitHasNoStaleExpiry: a wait whose deadline fired
// after its verdict arrived goes back for reuse with the expiry still in
// its timer's channel (timer channels are asynchronous under go.mod's
// go 1.22). Reusing it must not hand the next request that expiry as an
// instant DeadError.
func TestReusedVerdictWaitHasNoStaleExpiry(t *testing.T) {
	w := &verdictWait{reply: make(chan verdict, 1)}
	w.arm(time.Nanosecond)
	time.Sleep(5 * time.Millisecond) // the timer fires; nobody reads it
	w.disarm()
	deadline := w.arm(time.Hour)
	select {
	case <-deadline:
		t.Fatal("a reused wait delivered the previous deadline's expiry")
	default:
	}
	w.disarm()

	// Through the service: a request that times out drops its wait,
	// and the requests after it, on reused waits, get their verdicts.
	svc := newTestService(t, Options{RequestTimeout: 50 * time.Millisecond})
	var dead *DeadError
	if err := svc.Submit(simpleJob(0, 1, 100)); !errors.As(err, &dead) {
		t.Fatalf("submit on an unstarted service = %v, want *DeadError", err)
	}
	svc.Start()
	for i := 1; i <= 200; i++ {
		if err := svc.Submit(simpleJob(i, 1, 100)); err != nil {
			t.Fatalf("submit %d after a timed-out one: %v", i, err)
		}
	}
	if _, err := svc.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceNextIDClearsRecoveredIDs: after recovery NextID must not
// collide with journaled IDs from the service range, whichever member
// holds them.
func TestServiceNextIDClearsRecoveredIDs(t *testing.T) {
	overWALShapes(t, func(t *testing.T, sh shape) {
		dir := t.TempDir()
		svc := sh.service(t, walOptions(dir, WALConfig{Policy: wal.SyncAlways}))
		svc.Start()
		var id int
		for i := 0; i < sh.members; i++ {
			id = svc.NextID()
			if err := svc.Submit(simpleJob(id, 1, 1e7)); err != nil {
				t.Fatal(err)
			}
		}
		svc.Kill()
		svc.Stop()

		rec := sh.service(t, walOptions(dir, WALConfig{Policy: wal.SyncAlways, Recover: true}))
		if next := rec.NextID(); next <= id {
			t.Errorf("NextID after recovery = %d, collides with journaled %d", next, id)
		}
		rec.Stop()
	})
}
