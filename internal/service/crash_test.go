package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io/fs"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/wal"
)

// memFile is one file of a memFS. data is replaced, never overwritten,
// when the file shrinks, so a slice of it taken earlier keeps the bytes
// the file held then.
type memFile struct {
	data []byte
	// synced is data as of the last successful Sync: what a machine
	// crash is sure to keep.
	synced []byte
	// writes is the [start, end) span of every Write since the file was
	// last emptied.
	writes [][2]int
}

// fileView is a file as one crash instant sees it.
type fileView struct {
	data, synced []byte
	writes       [][2]int
}

// memOp is one logged operation and the files right after it.
type memOp struct {
	kind, name string
	err        error
	// live is the namespace the process sees (a kill keeps it all),
	// durable the one a machine crash keeps: as of the last SyncDir.
	live, durable map[string]fileView
}

// memFS is a wal.FS in memory that logs every operation with the files
// it leaves, so a test can rebuild what a crash at any instant would
// leave on disk.
type memFS struct {
	live, durable map[string]*memFile
	ops           []memOp
	// before runs ahead of every operation; the crash run uses it to
	// note which verdicts have already been replied.
	before func()
	// fault, when non-nil, may fail an operation. A failed write keeps
	// the first keep bytes of p.
	fault func(kind, name string, p []byte) (keep int, err error)
}

func newMemFS() *memFS {
	return &memFS{live: map[string]*memFile{}, durable: map[string]*memFile{}}
}

func views(ns map[string]*memFile) map[string]fileView {
	out := make(map[string]fileView, len(ns))
	for name, f := range ns {
		out[name] = fileView{data: f.data, synced: f.synced, writes: f.writes}
	}
	return out
}

// do runs one operation: the before hook, the fault hook, then apply
// unless the fault refused it; it logs the outcome.
func (m *memFS) do(kind, name string, p []byte, apply func(keep int)) (int, error) {
	if m.before != nil {
		m.before()
	}
	keep, err := len(p), error(nil)
	if m.fault != nil {
		if k, ferr := m.fault(kind, name, p); ferr != nil {
			keep, err = k, ferr
		}
	}
	if err == nil || (kind == "write" && keep > 0) {
		apply(keep)
	}
	m.ops = append(m.ops, memOp{kind: kind, name: name, err: err, live: views(m.live), durable: views(m.durable)})
	if err != nil {
		return keep, &fs.PathError{Op: kind, Path: name, Err: err}
	}
	return keep, nil
}

func (m *memFS) OpenFile(name string, flag int) (wal.File, error) {
	var f *memFile
	_, err := m.do("open", name, nil, func(int) {
		f = m.live[name]
		switch {
		case f == nil && flag&os.O_CREATE != 0:
			f = &memFile{}
			m.live[name] = f
		case f != nil && flag&os.O_TRUNC != 0:
			f.data, f.writes = nil, nil
		}
	})
	if err != nil {
		return nil, err
	}
	if f == nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &memHandle{m: m, name: name, f: f}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	_, err := m.do("rename", newpath, nil, func(int) {
		m.live[newpath] = m.live[oldpath]
		delete(m.live, oldpath)
	})
	return err
}

func (m *memFS) Remove(name string) error {
	_, err := m.do("remove", name, nil, func(int) { delete(m.live, name) })
	return err
}

func (m *memFS) SyncDir(dir string) error {
	_, err := m.do("syncdir", dir, nil, func(int) {
		clear(m.durable)
		for name, f := range m.live {
			m.durable[name] = f
		}
	})
	return err
}

// memHandle is an open memFile; every write appends.
type memHandle struct {
	m    *memFS
	name string
	f    *memFile
}

func (h *memHandle) Write(p []byte) (int, error) {
	return h.m.do("write", h.name, p, func(keep int) {
		start := len(h.f.data)
		h.f.data = append(h.f.data, p[:keep]...)
		h.f.writes = append(h.f.writes, [2]int{start, len(h.f.data)})
	})
}

func (h *memHandle) Sync() error {
	_, err := h.m.do("sync", h.name, nil, func(int) { h.f.synced = h.f.data })
	return err
}

func (h *memHandle) Truncate(size int64) error {
	_, err := h.m.do("truncate", h.name, nil, func(int) {
		h.f.data = append([]byte(nil), h.f.data[:size]...)
		h.f.writes = slices.DeleteFunc(slices.Clone(h.f.writes), func(w [2]int) bool { return w[1] > int(size) })
	})
	return err
}

func (h *memHandle) Close() error {
	_, err := h.m.do("close", h.name, nil, func(int) {})
	return err
}

// crashImage is the files one crash leaves: base name -> contents.
type crashImage map[string][]byte

func (img crashImage) key() uint64 {
	h := fnv.New64a()
	names := make([]string, 0, len(img))
	for name := range img {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(img[name]))
		h.Write(img[name])
	}
	return h.Sum64()
}

// tornCuts are the offsets into a frame in flight at which a kill tears
// it: nothing, one byte, all but the last header byte, the header
// alone, all but the last byte. Scan treats every cut inside a frame
// alike; internal/wal's TestScanDamagedTails covers every byte offset.
func tornCuts(n int) []int {
	var cuts []int
	for _, c := range []int{0, 1, walFrameHead - 1, walFrameHead, n - 1} {
		if c >= 0 && c < n && !slices.Contains(cuts, c) {
			cuts = append(cuts, c)
		}
	}
	return cuts
}

// walFrameHead is wal's frame header: u32 length + u32 CRC.
const walFrameHead = 8

// waiter is a request whose verdict has not been seen yet.
type waiter struct {
	key    string // submit: the ledger key
	cancel int    // cancel: the target, 0 for a submit
	reply  chan verdict
}

// scriptJob is one keyed submission of the crash script.
type scriptJob struct {
	key         string
	id, workers int
	iters       float64
	ackedAt     int // operation count when acked; -1 while not
	cancelledAt int // operation count when a cancel of it was acked; -1 while not
	err         error
}

func (sj *scriptJob) job() *job.Job { return simpleJob(sj.id, sj.workers, sj.iters) }

// crashRun is one scripted service run over a memFS: the loop body
// driven from the test goroutine, every verdict timed against the
// operation log, and the federation digest after every journal record.
type crashRun struct {
	t       *testing.T
	sh      shape
	policy  wal.SyncPolicy
	fs      *memFS
	svc     *Service
	jobs    []*scriptJob
	waiting []waiter
	// digestAt[n] is the federation digest after n journal records.
	digestAt []uint64
}

func newCrashRun(t *testing.T, sh shape, policy wal.SyncPolicy) *crashRun {
	t.Helper()
	c := &crashRun{t: t, sh: sh, policy: policy, fs: newMemFS()}
	c.fs.before = c.poll
	var err error
	c.svc, err = sh.build(t, walOptions(t.TempDir(), WALConfig{Policy: policy, CheckpointEvery: 4, FS: c.fs}))
	if err != nil {
		t.Fatal(err)
	}
	c.digestAt = []uint64{c.svc.fed.Digest()}
	return c
}

// poll records every verdict replied since the last poll.
func (c *crashRun) poll() {
	at := len(c.fs.ops)
	c.waiting = slices.DeleteFunc(c.waiting, func(w waiter) bool {
		select {
		case v := <-w.reply:
			c.replied(w, at, v)
			return true
		default:
			return false
		}
	})
}

// replied records verdict v, seen replied after at operations: every
// crash image from that boundary on must honour it.
func (c *crashRun) replied(w waiter, at int, v verdict) {
	for _, sj := range c.jobs {
		switch {
		case w.cancel != 0:
			if sj.id == w.cancel && v.err == nil && sj.cancelledAt < 0 {
				sj.cancelledAt = at
			}
		case sj.key != w.key:
		case v.err != nil:
			sj.err = v.err
		case sj.ackedAt < 0:
			if v.id != sj.id {
				c.t.Errorf("key %s acked as job %d, submitted as %d", sj.key, v.id, sj.id)
			}
			sj.ackedAt = at
		}
	}
}

// afterAction polls and notes the digest the journal's new record, if
// any, stands for.
func (c *crashRun) afterAction() {
	c.poll()
	if j := c.svc.journal; j.applied == len(c.digestAt) {
		c.digestAt = append(c.digestAt, c.svc.fed.Digest())
	}
}

// send hands one request to the loop body; its verdict is picked up by
// poll, whenever the loop replies.
func (c *crashRun) send(r request) {
	r.reply = make(chan verdict, 1)
	c.waiting = append(c.waiting, waiter{key: r.key, cancel: r.id, reply: r.reply})
	c.svc.handle(r)
	c.afterAction()
}

func (c *crashRun) submit(sj *scriptJob) {
	c.send(request{kind: submitReq, key: sj.key, job: sj.job()})
}

// round is one turn of the run loop after its requests: stop on a
// journal failure, release the group commit, process a boundary,
// checkpoint when due.
func (c *crashRun) round() {
	if c.svc.journal.failure() != nil {
		return
	}
	c.svc.journal.flushGroup(true)
	c.afterAction()
	if c.svc.journal.failure() != nil || !c.svc.fed.HasPendingEvents() {
		return
	}
	if !c.svc.processBoundary() {
		// A poisoned federation answers ProcessNextEvent with its
		// sticky error and does not step.
		c.t.Fatalf("boundary failed: journal %v, fed %v", c.svc.journal.failure(), c.svc.fed.ProcessNextEvent())
	}
	c.afterAction()
	c.svc.journal.maybeCheckpoint(c.svc.keys)
	c.afterAction()
}

// script is the svc-durable-shaped workload: seeded keyed submits,
// duplicate retries (one right behind its original, before any group
// sync), a cancel of a long job, rounds between, a drain and a graceful
// shutdown.
func (c *crashRun) script(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 10; i++ {
		sj := &scriptJob{key: fmt.Sprintf("key-%d", i), id: 1 + i, workers: 1 + rng.Intn(2),
			iters: float64(3000 + rng.Intn(12000)), ackedAt: -1, cancelledAt: -1}
		if i == 2 {
			sj.iters = 1e8 // runs until cancelled
		}
		c.jobs = append(c.jobs, sj)
		c.submit(sj)
		if i == 3 || rng.Intn(3) == 0 {
			c.submit(c.jobs[rng.Intn(len(c.jobs))]) // a retry: must dedup
		}
		if i == 6 {
			c.send(request{kind: cancelReq, id: c.jobs[2].id})
		}
		if i%2 == 1 {
			c.round()
		}
	}
	for n := 0; n < 200 && c.svc.fed.HasPendingEvents(); n++ {
		c.round()
	}
	c.svc.shutdown()
	c.poll()
	if c.svc.finalErr != nil || len(c.waiting) > 0 {
		c.t.Fatalf("scripted run: final error %v, %d verdicts never replied", c.svc.finalErr, len(c.waiting))
	}
}

// imageSet collects distinct crash images, each with the latest
// operation boundary that produces it: acknowledgements only
// accumulate, so that boundary's are the most any crash leaving those
// bytes must honour.
type imageSet struct {
	at     map[uint64]int
	images map[uint64]crashImage
	total  int
}

func (s *imageSet) add(img crashImage, at int) {
	if s.at == nil {
		s.at, s.images = map[uint64]int{}, map[uint64]crashImage{}
	}
	s.total++
	k := img.key()
	if prev, ok := s.at[k]; !ok || at > prev {
		s.at[k], s.images[k] = at, img
	}
}

func liveImage(files map[string]fileView) crashImage {
	img := crashImage{}
	for name, f := range files {
		img[filepath.Base(name)] = f.data
	}
	return img
}

// processKillImages is what a kill leaves: every byte written so far,
// synced or not, at every operation boundary, plus each journal frame
// torn at tornCuts.
func (c *crashRun) processKillImages() (bounds, torn imageSet) {
	bounds.add(crashImage{}, 0)
	for i, op := range c.fs.ops {
		bounds.add(liveImage(op.live), i+1)
		if op.kind != "write" || filepath.Base(op.name) != "journal.wal" {
			continue
		}
		f := op.live[op.name]
		w := f.writes[len(f.writes)-1]
		for _, cut := range tornCuts(w[1] - w[0]) {
			img := liveImage(op.live)
			img["journal.wal"] = f.data[:w[0]+cut]
			torn.add(img, i)
		}
	}
	return bounds, torn
}

// machineCrashImages is what losing the page cache leaves: at every
// operation boundary, the names as of the last directory sync, each
// file as of its last sync — and, for the journal, every prefix of what
// was written since, at frame boundaries and torn at tornCuts.
func (c *crashRun) machineCrashImages() (images imageSet) {
	images.add(crashImage{}, 0)
	for i, op := range c.fs.ops {
		base := syncedImage(op.durable)
		images.add(base, i+1)
		for name, f := range op.durable {
			if filepath.Base(name) != "journal.wal" || !bytes.HasPrefix(f.data, f.synced) {
				continue
			}
			for _, w := range f.writes {
				if w[0] < len(f.synced) || w[1] > len(f.data) {
					continue
				}
				for _, cut := range append(tornCuts(w[1]-w[0]), w[1]-w[0]) {
					img := maps.Clone(base)
					img["journal.wal"] = f.data[:w[0]+cut]
					images.add(img, i+1)
				}
			}
		}
	}
	return images
}

// syncedImage is the files a machine crash keeps of a durable
// namespace, each as of its last sync.
func syncedImage(files map[string]fileView) crashImage {
	img := crashImage{}
	for name, f := range files {
		img[filepath.Base(name)] = f.synced
	}
	return img
}

// checkpointAhead is the recovery branch only a machine crash reaches:
// the fsynced checkpoint embodies journal records the crash took, so
// recovery restores the checkpoint and restarts the journal.
func checkpointAhead(info *Recovery, crashed *wal.ScanResult) bool {
	return info.CheckpointSeq > len(crashed.Records)
}

// recoverImage writes one crash image to a fresh directory, recovers a
// service from it, and checks the durability contract against the
// verdicts replied up to operation boundary at: every acked key and
// cancel survives; every acked or surviving key dedups to its original
// ID; the recovered federation has the digest the uncrashed run had
// after as many records; the torn tail is reported and cut; the
// reopened journal takes new records and replays clean. It reports
// whether the checkpoint was ahead of the journal.
func (c *crashRun) recoverImage(t *testing.T, root string, img crashImage, at int) (ahead bool) {
	t.Helper()
	dir, err := os.MkdirTemp(root, "image-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	for name, data := range img {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	crashed, err := wal.Scan(journalPath(dir))
	if err != nil {
		t.Fatalf("crash image: %v", err)
	}
	rec, err := c.sh.build(t, walOptions(dir, WALConfig{Policy: c.policy, Recover: true}))
	if err != nil {
		t.Fatalf("boundary %d: recover: %v", at, err)
	}
	info := rec.Recovery()
	ahead = checkpointAhead(info, crashed)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("boundary %d (journal %d bytes, recovery %+v): %s", at, len(img["journal.wal"]), *info, fmt.Sprintf(format, args...))
	}
	if info.TruncatedBytes != crashed.TruncatedBytes {
		fail("reported %d truncated bytes, the image has %d", info.TruncatedBytes, crashed.TruncatedBytes)
	}
	// A record whose append failed may still have reached the file
	// whole; the run noted no digest for it.
	if n := info.CheckpointSeq + info.Replayed; n < len(c.digestAt) && rec.fed.Digest() != c.digestAt[n] ||
		n >= len(c.digestAt) && c.fs.fault == nil {
		fail("recovered digest %#x is not the uncrashed run's after %d records", rec.fed.Digest(), n)
	}

	if ahead {
		// The journal restarts empty and the re-anchored checkpoint
		// counts its records from there.
		scan, err := wal.Scan(journalPath(dir))
		raw, cerr := wal.ReadCheckpoint(checkpointPath(dir))
		var doc checkpointDoc
		if err != nil || cerr != nil || json.Unmarshal(raw, &doc) != nil {
			fail("after a checkpoint-ahead recovery: scan %v, checkpoint %v", err, cerr)
		} else if len(scan.Records) != 0 || doc.Seq != len(scan.Records) {
			fail("checkpoint ahead: journal restarted with %d records, checkpoint re-anchored at %d", len(scan.Records), doc.Seq)
		}
	}

	do := func(r request) verdict {
		r.reply = make(chan verdict, 1)
		rec.handle(r)
		rec.journal.flushGroup(true)
		return <-r.reply
	}
	for _, sj := range c.jobs {
		acked := sj.ackedAt >= 0 && sj.ackedAt <= at
		if _, survived := rec.keys[sj.key]; !acked && !survived {
			continue
		}
		if v := do(request{kind: submitReq, key: sj.key, job: sj.job()}); v.err != nil || !v.deduped || v.id != sj.id {
			fail("resubmitted %s (acked %v) = %+v, want a dedup to %d", sj.key, acked, v, sj.id)
		}
		if sj.cancelledAt >= 0 && sj.cancelledAt <= at {
			if v := do(request{kind: cancelReq, id: sj.id}); v.err == nil {
				fail("acked cancel of job %d lost: cancelling it again succeeded", sj.id)
			}
		}
	}

	// The reopened journal takes a fresh record after the cut tail.
	sj := scriptJob{key: "after-recovery", id: 999, workers: 1, iters: 100}
	if v := do(request{kind: submitReq, key: sj.key, job: sj.job()}); v.err != nil {
		fail("submit after recovery: %v", v.err)
	}
	rec.journal.w.Abort()
	if ahead {
		// A full replay of a restarted journal from a fresh federation
		// does not reach the checkpointed state, so VerifyFedWAL has
		// nothing to say about it.
		return ahead
	}
	res := c.sh.verify(t, dir)
	if res.TruncatedBytes != 0 || res.Submitted == 0 || res.Jobs[sj.key] != sj.id {
		fail("reopened journal replays %+v, want no torn tail and the fresh submission", *res)
	}
	return ahead
}

// crashModel is one way of crashing and the images it leaves.
type crashModel struct {
	name   string
	images imageSet
}

// TestCrashEnumeration runs one scripted service per shape and sync
// policy over a recording in-memory FS, then recovers from every crash
// image the run could leave: every operation boundary and every torn
// frame under a process kill (all policies), and every written-but-
// unsynced journal prefix under a machine crash (SyncAlways and
// SyncGroup; SyncOff promises nothing across one).
func TestCrashEnumeration(t *testing.T) {
	start := time.Now()
	for _, sh := range walShapes() {
		for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncGroup, wal.SyncOff} {
			t.Run(fmt.Sprintf("%s/%s", sh, policy), func(t *testing.T) {
				c := newCrashRun(t, sh, policy)
				c.script(1)
				root := t.TempDir()
				bounds, torn := c.processKillImages()
				models := []crashModel{{"kill at an operation boundary", bounds}, {"kill tearing a journal frame", torn}}
				if policy != wal.SyncOff {
					models = append(models, crashModel{"machine crash", c.machineCrashImages()})
				}
				for _, m := range models {
					aheads := 0
					for k, img := range m.images.images {
						if c.recoverImage(t, root, img, m.images.at[k]) {
							aheads++
						}
					}
					t.Logf("%s: %d crash images, %d distinct recovered, %d with the checkpoint ahead of the journal",
						m.name, m.images.total, len(m.images.images), aheads)
					if m.name == "machine crash" && policy == wal.SyncGroup && aheads == 0 {
						t.Error("no machine-crash image put the checkpoint ahead of the journal; recovery.go's restart branch went untested")
					}
				}
			})
		}
	}
	t.Logf("enumeration took %v", time.Since(start))
}

// TestJournalIOErrorsFailStop injects I/O errors into the journal — a
// write that runs out of space after part of its frame, a sync that
// fails, and both — under every policy. The request whose record failed
// is refused, every later request gets "journal failed", Stop fails, no
// checkpoint follows the failure, a deferred group commit is acked only
// by a sync that really succeeded, and recovery from what reached the
// file (and, where the policy promises it, from what was synced) keeps
// every acked key.
func TestJournalIOErrorsFailStop(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncGroup, wal.SyncOff} {
		for _, fault := range []struct {
			name            string
			enospc, eioSync bool
		}{{"enospc", true, false}, {"eio-sync", false, true}, {"enospc+eio-sync", true, true}} {
			t.Run(fmt.Sprintf("%s/%s", policy, fault.name), func(t *testing.T) {
				c := newCrashRun(t, oneCluster, policy)
				// Tear the fourth submission's frame, or fail the first
				// journal sync after it, or both.
				submits, armed := 0, false
				c.fs.fault = func(kind, name string, p []byte) (int, error) {
					if filepath.Base(name) != "journal.wal" {
						return 0, nil
					}
					switch {
					case kind == "write" && bytes.Contains(p, []byte(`"type":"submit"`)):
						if submits++; submits == 4 {
							armed = fault.eioSync
							if fault.enospc {
								return len(p) / 2, syscall.ENOSPC
							}
						}
					case kind == "sync" && armed:
						armed = false
						return 0, syscall.EIO
					}
					return 0, nil
				}
				var refused []*scriptJob
				for i := 0; i < 8; i++ {
					sj := &scriptJob{key: fmt.Sprintf("key-%d", i), id: 1 + i, workers: 1, iters: 5000, ackedAt: -1, cancelledAt: -1}
					c.jobs = append(c.jobs, sj)
					if c.svc.journal.failure() != nil {
						refused = append(refused, sj)
					}
					c.submit(sj)
					if i%3 == 1 {
						c.round()
					}
				}
				failedDuringDrive := c.svc.journal.failure() != nil
				if failedDuringDrive {
					r := request{kind: cancelReq, id: 1, reply: make(chan verdict, 1)}
					c.svc.handle(r)
					if v := <-r.reply; v.err == nil || !strings.Contains(v.err.Error(), "journal failed") {
						t.Errorf("cancel after the failure = %v, want a journal-failed refusal", v.err)
					}
				} else if policy != wal.SyncOff {
					t.Fatal("no request met the failure")
				}
				if _, err := c.svc.Stop(); err == nil {
					t.Error("Stop after a journal I/O error reported success")
				}
				c.poll()
				failedAt := slices.IndexFunc(c.fs.ops, func(op memOp) bool { return op.err != nil })
				if failedAt < 0 {
					t.Fatal("the fault never fired")
				}
				if len(c.waiting) > 0 {
					t.Errorf("%d verdicts never replied", len(c.waiting))
				}

				for _, sj := range refused {
					if sj.err == nil || !strings.Contains(sj.err.Error(), "journal failed") {
						t.Errorf("%s after the failure: verdict %v, want journal failed", sj.key, sj.err)
					}
				}
				if owner := c.jobs[3]; failedDuringDrive && owner.ackedAt >= 0 {
					t.Errorf("%s acked though its record or its sync failed", owner.key)
				}
				// key-2 waits in the group batch when key-3's frame tears;
				// shutdown's flushGroup acks it only if its sync succeeds.
				if policy == wal.SyncGroup && fault.enospc && (c.jobs[2].ackedAt >= 0) == fault.eioSync {
					t.Errorf("key-2 acked at %d with a sync that failed = %v", c.jobs[2].ackedAt, fault.eioSync)
				}
				for _, sj := range c.jobs {
					// Only a deferred group commit may be acked after the
					// failure, and only by a sync that succeeded.
					if sj.ackedAt > failedAt && (policy != wal.SyncGroup || journalSyncFailedAfter(c.fs, failedAt)) {
						t.Errorf("%s acked at operation %d, after the failure at %d", sj.key, sj.ackedAt, failedAt)
					}
				}
				for _, op := range c.fs.ops[failedAt:] {
					if strings.Contains(op.name, "checkpoint") {
						t.Errorf("%s of %s after the journal failed", op.kind, op.name)
					}
				}

				last := c.fs.ops[len(c.fs.ops)-1]
				root := t.TempDir()
				c.recoverImage(t, root, liveImage(last.live), len(c.fs.ops))
				if policy != wal.SyncOff {
					c.recoverImage(t, root, syncedImage(last.durable), len(c.fs.ops))
				}
			})
		}
	}
}

// journalSyncFailedAfter reports whether a journal sync failed after
// operation from.
func journalSyncFailedAfter(m *memFS, from int) bool {
	for _, op := range m.ops[from+1:] {
		if op.kind == "sync" && filepath.Base(op.name) == "journal.wal" && op.err != nil {
			return true
		}
	}
	return false
}
