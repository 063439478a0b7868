package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/federation"
	"repro/internal/job"
	"repro/internal/wal"
)

// driver runs an unstarted service's loop body from the test goroutine,
// one request or boundary at a time, so a journal's contents — and the
// instant of a crash — are a script, not a race.
type driver struct {
	t   *testing.T
	svc *Service
}

func (d driver) do(r request) verdict {
	r.reply = make(chan verdict, 1)
	d.svc.handle(r)
	return <-r.reply
}

func (d driver) submit(key string, j *job.Job) {
	d.t.Helper()
	if v := d.do(request{kind: submitReq, job: j, key: key}); v.err != nil {
		d.t.Fatalf("submit %d: %v", j.ID, v.err)
	}
}

// step processes up to n boundaries, stopping early when idle.
func (d driver) step(n int) {
	d.t.Helper()
	for i := 0; i < n && d.svc.fed.HasPendingEvents(); i++ {
		if !d.svc.processBoundary() {
			// A poisoned federation answers ProcessNextEvent with its
			// sticky error and does not step.
			d.t.Fatalf("boundary failed: journal %v, fed %v", d.svc.journal.failure(), d.svc.fed.ProcessNextEvent())
		}
	}
}

// TestOneMemberJournalMatchesParentBytes: a federation of one writes,
// byte for byte, the journal the single-engine service wrote before the
// record had a member field. testdata/one_member_parent.wal is this
// script's journal as written by the commit before the field existed.
func TestOneMemberJournalMatchesParentBytes(t *testing.T) {
	dir := t.TempDir()
	d := driver{t, oneCluster.service(t, walOptions(dir, WALConfig{Policy: wal.SyncOff, CheckpointEvery: 1 << 30}))}
	for i := 0; i < 5; i++ {
		key := ""
		if i%2 == 0 {
			key = fmt.Sprintf("key-%d", i)
		}
		d.submit(key, simpleJob(i, 1+i%2, float64(20000+7000*i)))
	}
	d.step(3)
	if v := d.do(request{kind: cancelReq, id: 2}); v.err != nil {
		t.Fatal(v.err)
	}
	if v := d.do(request{kind: submitReq, job: simpleJob(0, 1, 100)}); v.err == nil {
		t.Fatal("duplicate accepted")
	}
	for i := 5; i < 7; i++ {
		d.submit(fmt.Sprintf("key-%d", i), simpleJob(i, 2, float64(9000*i)))
	}
	d.step(1 << 20)
	d.svc.journal.w.Abort()

	got, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "one_member_parent.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("one-member journal is %d bytes and differs from the parent's %d", len(got), len(want))
	}
}

// TestParentJournalRecovers: a journal and checkpoint written by the
// commit before the member index (the checkpoint holds one `engine`
// section, the records no `member`) recover from the checkpoint, verify
// their tail rounds, and reach the digest that commit recorded.
func TestParentJournalRecovers(t *testing.T) {
	fixture := filepath.Join("testdata", "parent_journal")
	raw, err := os.ReadFile(filepath.Join(fixture, "digest.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Recovery reopens the journal and rewrites the checkpoint: work on
	// a copy.
	dir := copyWALDir(t, fixture)
	rec := oneCluster.service(t, walOptions(dir, WALConfig{Policy: wal.SyncAlways, Recover: true}))
	info := rec.Recovery()
	if info.CheckpointSeq == 0 || info.RoundsVerified == 0 {
		t.Errorf("recovery %+v, want a checkpoint restored and tail rounds verified", info)
	}
	if got := rec.Snapshot().Digest; got != want {
		t.Errorf("recovered digest %#x, parent recorded %#x", got, want)
	}
	rec.Start()
	if id, deduped, err := rec.SubmitKeyed("key-4", simpleJob(99, 1, 100)); err != nil || !deduped || id != 4 {
		t.Errorf("key-4 after recovery = (%d, %v, %v), want (4, true, nil)", id, deduped, err)
	}
	if _, err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
	if res := oneCluster.verify(t, dir); res.Digest != want || res.Rounds == 0 {
		t.Errorf("full replay: digest %#x after %d rounds, want %#x", res.Digest, res.Rounds, want)
	}
}

// TestReplayKeepsRecordedMember feeds replayRecords submissions whose
// recorded member is never the one the federation's router would pick
// at that point of the replay. Each job must land on its recorded
// member: replay never routes, so a router that changes between the
// crashed run and the recovering one cannot move a recovered job.
func TestReplayKeepsRecordedMember(t *testing.T) {
	for _, router := range federation.RouterNames() {
		t.Run(router, func(t *testing.T) {
			fed := shape{members: 3, router: router}.federation(t)
			keys := make(map[string]int)
			for i := 0; i < 12; i++ {
				j := simpleJob(i, 1+i%2, float64(1000*(i+1)))
				pick, err := fed.RouteJob(j)
				if err != nil {
					t.Fatal(err)
				}
				member := (pick + 1 + i%2) % 3
				payload, err := json.Marshal(&walRecord{Type: recSubmit, Key: fmt.Sprintf("k%d", i), Job: j, Member: member})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := replayRecords(fed, keys, [][]byte{payload}); err != nil {
					t.Fatalf("job %d: %v", i, err)
				}
				if got, _ := fed.Owner(i); got != member {
					t.Errorf("job %d replayed onto member %d, journal recorded %d (router picks %d)", i, got, member, pick)
				}
			}
			if len(keys) != 12 {
				t.Errorf("ledger holds %d keys, want 12", len(keys))
			}
		})
	}
}

// TestRecoveryRefusesMemberOutsideFederation: a journal naming a member
// the federation does not have — written by a larger deployment, or
// damaged — is refused with an error that says so.
func TestRecoveryRefusesMemberOutsideFederation(t *testing.T) {
	for _, member := range []int{2, 7, -1} {
		dir := t.TempDir()
		w, err := wal.Create(journalPath(dir), wal.SyncOff, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range []walRecord{
			{Type: recSubmit, Job: simpleJob(0, 1, 1000)},
			{Type: recSubmit, Job: simpleJob(1, 1, 1000), Member: member},
		} {
			payload, err := json.Marshal(&rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = twoRegions.build(t, walOptions(dir, WALConfig{Recover: true}))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("member %d outside [0, 2)", member)) {
			t.Errorf("member %d: recover = %v, want an out-of-range refusal", member, err)
		}
	}
}

// FuzzReplayRecords feeds replayRecords arbitrary payloads after a
// valid prefix. Whatever they hold — unknown types, a submission with no
// job, members out of range or negative, rounds nothing is pending for
// — replay returns an error or applies the record; it never panics, and
// a refused record leaves the federation and the ledger as they were.
func FuzzReplayRecords(f *testing.F) {
	seed := func(rec walRecord) {
		payload, err := json.Marshal(&rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	seed(walRecord{Type: recSubmit, Key: "k", Job: simpleJob(7, 1, 1000), Member: 1})
	seed(walRecord{Type: recSubmit, Job: simpleJob(8, 1, 1000), Member: 2})
	seed(walRecord{Type: recSubmit, Job: simpleJob(8, 1, 1000), Member: -1})
	seed(walRecord{Type: recSubmit, Key: "dup", Job: simpleJob(0, 1, 1000)})
	seed(walRecord{Type: recSubmit, Member: 1})
	seed(walRecord{Type: recCancel, ID: 0})
	seed(walRecord{Type: recCancel, ID: 99})
	seed(walRecord{Type: recRound, Member: 0, Round: 1})
	seed(walRecord{Type: recRound, Member: 1, Round: 1})
	seed(walRecord{Type: recRound, Member: -1})
	seed(walRecord{Type: "compact"})
	f.Add([]byte(`{"type":"submit","job":{"ID":3,"Workers":-4}}`))
	f.Add([]byte(`{"type":"round","member":1e99}`))
	f.Add([]byte(`not json`))

	prefix, err := json.Marshal(&walRecord{Type: recSubmit, Key: "first", Job: simpleJob(0, 1, 1000)})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		fed := twoRegions.federation(t)
		keys := make(map[string]int)
		if _, err := replayRecords(fed, keys, [][]byte{prefix}); err != nil {
			t.Fatalf("valid prefix refused: %v", err)
		}
		before, ledger, next := fed.Snapshot(), len(keys), fed.NextMember()
		tally, err := replayRecords(fed, keys, [][]byte{payload})
		if err == nil {
			if tally.Rounds+tally.Submitted+tally.Cancelled != 1 {
				t.Fatalf("accepted record tallied as %+v", tally)
			}
			return
		}
		var rec walRecord
		if json.Unmarshal(payload, &rec) == nil && rec.Type == recRound && rec.Member == next {
			return // the round ran and then failed its comparison
		}
		// The prefix's job is still pending, so only a poisoned
		// federation reports no pending events.
		after := fed.Snapshot()
		if !fed.HasPendingEvents() || len(keys) != ledger || after.Pending != before.Pending ||
			after.Cancelled != before.Cancelled || after.Digest != before.Digest {
			t.Fatalf("refused record (%v) still changed state: pending %d->%d cancelled %d->%d ledger %d->%d has pending events %v",
				err, before.Pending, after.Pending, before.Cancelled, after.Cancelled, ledger, len(keys), fed.HasPendingEvents())
		}
	})
}
