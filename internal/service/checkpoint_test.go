package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"

	"repro/internal/federation"
	"repro/internal/sim"
	"repro/internal/wal"
)

// pinnedFixture is a checkpoint file writePinnedCheckpoint wrote at the
// commit before checkpoints were assembled from cached parts.
var pinnedFixture = filepath.Join("testdata", "three_member_parent.ckpt")

// pinnedFederation is the federation the fixture belongs to: three
// two-node members under fifo behind the round-robin router, each with
// node 0 down from t=400 s on.
func pinnedFederation(t *testing.T) *federation.Federation {
	t.Helper()
	members := make([]federation.MemberConfig, 3)
	for i := range members {
		opts := sim.ValidatedOptions()
		opts.Failures = []sim.Failure{{Node: 0, Start: 400, End: 1e6}}
		members[i] = federation.MemberConfig{
			Name: fmt.Sprintf("region%d", i), Cluster: twoNodeCluster(), Scheduler: fifo{}, Sim: opts,
		}
	}
	router, err := federation.NewRouter("round-robin")
	if err != nil {
		t.Fatal(err)
	}
	fed, err := federation.New(members, router)
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

// writePinnedCheckpoint runs the fixture's script on a journaling
// service and checkpoints it into dir: keyed and unkeyed submissions,
// rounds until jobs have finished and node 0 is down everywhere, then a
// cancel still waiting for its boundary. The last submission went to
// member 1, so the routing cursor is 2.
func writePinnedCheckpoint(t *testing.T, dir string) {
	t.Helper()
	svc, err := NewFed(pinnedFederation(t), walOptions(dir, WALConfig{Policy: wal.SyncOff, CheckpointEvery: 1 << 30}))
	if err != nil {
		t.Fatal(err)
	}
	d := driver{t, svc}
	for id := 1; id <= 8; id++ {
		key := ""
		if id%2 == 0 {
			key = fmt.Sprintf("key-%d", id)
		}
		iters := float64(2000 + 6000*id)
		if id == 5 {
			iters = 1e8 // still running when cancelled
		}
		d.submit(key, simpleJob(id, 1+id%2, iters))
	}
	d.step(12)
	if v := d.do(request{kind: cancelReq, id: 5}); v.err != nil {
		t.Fatal(v.err)
	}
	d.svc.journal.writeCheckpoint(d.svc.keys)
	d.svc.journal.w.Abort()
}

// readCheckpointFile returns a checkpoint file's bytes and its decoded
// payload.
func readCheckpointFile(t *testing.T, path string) (raw []byte, doc checkpointDoc) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wal.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(payload, &doc); err != nil {
		t.Fatal(err)
	}
	return raw, doc
}

// TestCheckpointRoundTripsParentBytes restores the fixture and
// checkpoints it again: the file must come back byte for byte. Two
// fresh runs never write the same checkpoint (each report carries the
// wall-clock DecisionTime), but a restore→write round trip must, so
// this pins the encoding itself. The fixture holds what the writer has
// to get right: an idempotency ledger, a routing cursor past 0, a
// pending cancel, a down node, and finished jobs beside active ones.
func TestCheckpointRoundTripsParentBytes(t *testing.T) {
	want, doc := readCheckpointFile(t, pinnedFixture)
	if len(doc.Keys) == 0 || doc.Next == 0 || len(doc.Members) != 3 {
		t.Fatalf("fixture lost its shape: %d keys, cursor %d, %d members", len(doc.Keys), doc.Next, len(doc.Members))
	}
	for _, field := range []string{`"cancel_requested":[`, `"prev_down":[0]`, `"Jobs":[{`} {
		if !bytes.Contains(want, []byte(field)) {
			t.Fatalf("fixture holds no %s", field)
		}
	}
	fed := pinnedFederation(t)
	if err := fed.RestoreState(doc.State); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	j := &journal{cfg: WALConfig{Dir: dir}, fed: fed, applied: doc.Seq}
	j.writeCheckpoint(doc.Keys)
	got, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("restored and re-written checkpoint is %d bytes and differs from the fixture's %d", len(got), len(want))
	}
}

// TestPinnedScriptMatchesFixture runs the fixture's script afresh: the
// checkpoint it writes equals the fixture in everything but the
// wall-clock DecisionTime of each member's report.
func TestPinnedScriptMatchesFixture(t *testing.T) {
	dir := t.TempDir()
	writePinnedCheckpoint(t, dir)
	_, fresh := readCheckpointFile(t, checkpointPath(dir))
	_, fixture := readCheckpointFile(t, pinnedFixture)
	canonical := func(doc checkpointDoc) string {
		t.Helper()
		for i, section := range doc.Members {
			var m map[string]any
			if err := json.Unmarshal(section, &m); err != nil {
				t.Fatal(err)
			}
			m["report"].(map[string]any)["DecisionTime"] = 0
			var err error
			if doc.Members[i], err = json.Marshal(m); err != nil {
				t.Fatal(err)
			}
		}
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	if got, want := canonical(fresh), canonical(fixture); got != want {
		t.Errorf("the script's checkpoint differs from the fixture beyond DecisionTime:\n got %s\nwant %s", got, want)
	}
}

// boundaries processes up to n boundaries as the run loop does, each
// followed by the periodic checkpoint check.
func (d driver) boundaries(n int) {
	d.t.Helper()
	for i := 0; i < n && d.svc.fed.HasPendingEvents(); i++ {
		d.step(1)
		d.svc.journal.maybeCheckpoint(d.svc.keys)
	}
}

// ckptFS is the OS with every checkpoint attempt counted. While refuse
// is set an attempt fails with ENOSPC: at opening the temporary file,
// or with atRename at renaming it over the checkpoint.
type ckptFS struct {
	tearFS           // Remove and SyncDir go to the OS
	refuse, atRename bool
	attempts         int
}

func (c *ckptFS) OpenFile(name string, flag int) (wal.File, error) {
	if strings.HasSuffix(name, ".tmp") {
		c.attempts++
		if c.refuse && !c.atRename {
			return nil, syscall.ENOSPC
		}
	}
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (c *ckptFS) Rename(oldpath, newpath string) error {
	if c.refuse && c.atRename {
		return syscall.ENOSPC
	}
	return os.Rename(oldpath, newpath)
}

// TestRefusedCheckpointWaitsItsTurn: a disk that refuses checkpoints
// costs one attempt per CheckpointEvery records, not one per boundary,
// whether the temporary file cannot be opened or not renamed; once the
// disk takes them again, the next turn's checkpoint lands.
func TestRefusedCheckpointWaitsItsTurn(t *testing.T) {
	const every = 8
	for _, atRename := range []bool{false, true} {
		t.Run(fmt.Sprintf("atRename=%v", atRename), func(t *testing.T) {
			dir := t.TempDir()
			fs := &ckptFS{refuse: true, atRename: atRename}
			svc, err := NewFed(pinnedFederation(t), walOptions(dir, WALConfig{Policy: wal.SyncOff, CheckpointEvery: every, FS: fs}))
			if err != nil {
				t.Fatal(err)
			}
			d := driver{t, svc}
			for id := 1; id <= 12; id++ {
				d.submit("", simpleJob(id, 1, float64(8000*id)))
			}
			d.boundaries(60)
			records := svc.journal.applied
			if fs.attempts < 2 || fs.attempts > records/every {
				t.Fatalf("%d checkpoint attempts over %d records, want one per %d", fs.attempts, records, every)
			}
			if _, err := os.Stat(checkpointPath(dir)); !os.IsNotExist(err) {
				t.Fatalf("a refused checkpoint is on disk (stat: %v)", err)
			}
			fs.refuse = false
			for id := 13; id < 13+every; id++ {
				d.submit("", simpleJob(id, 1, 4000))
			}
			d.boundaries(1)
			if _, doc := readCheckpointFile(t, checkpointPath(dir)); doc.Seq <= records {
				t.Errorf("the checkpoint after the disk recovered is at record %d, want past %d", doc.Seq, records)
			}
			svc.journal.w.Abort()
			t.Logf("%d attempts over %d records", fs.attempts, records)
		})
	}
}

// TestCheckpointsAllocateLessThanTheyWrite takes a checkpoint every 100
// keyed submissions from 1 000 to 4 000 jobs and requires what those
// checkpoints allocate, summed, to stay under 0.6 times what they
// write: a job is encoded once, by the first checkpoint after its
// submission, into a chunk no later checkpoint copies, and the head
// and key ledger are appended into buffers the journal reuses (0.28x
// on amd64, 0.47x under -race). One history buffer regrown by append
// allocated 0.69x here, and the encoder before the parts writer, which
// encoded every job at every checkpoint and compacted the result twice
// more, 4.96x. Each file must also be, byte for byte, the JSON of the
// checkpointDoc it decodes to, as that encoder wrote it.
func TestCheckpointsAllocateLessThanTheyWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("4 000 submissions")
	}
	dir := t.TempDir()
	svc, err := NewFed(pinnedFederation(t), walOptions(dir, WALConfig{Policy: wal.SyncOff, CheckpointEvery: 1 << 30}))
	if err != nil {
		t.Fatal(err)
	}
	d := driver{t, svc}
	var allocated, written uint64
	var ms runtime.MemStats
	for id := 1; id <= 4000; id++ {
		d.submit(fmt.Sprintf("key-%d", id), simpleJob(id, 1+id%2, float64(2000+id%7*3000)))
		d.step(1)
		if id < 1000 || id%100 != 0 {
			continue
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		svc.journal.writeCheckpoint(svc.keys)
		runtime.ReadMemStats(&ms)
		allocated += ms.TotalAlloc - before

		payload, err := wal.ReadCheckpoint(checkpointPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		written += uint64(len(payload))
		var doc checkpointDoc
		if err := json.Unmarshal(payload, &doc); err != nil {
			t.Fatal(err)
		}
		if want, err := json.Marshal(&doc); err != nil || !bytes.Equal(payload, want) {
			t.Fatalf("%d jobs: the checkpoint is not the JSON of its checkpointDoc (%v)", id, err)
		}
	}
	svc.journal.w.Abort()
	ratio := float64(allocated) / float64(written)
	t.Logf("31 checkpoints wrote %.1f MB and allocated %.1f MB (%.2fx)", float64(written)/1e6, float64(allocated)/1e6, ratio)
	if ratio > 0.6 {
		t.Errorf("checkpoints allocated %.2f times what they wrote, budget 0.6", ratio)
	}
}

// FuzzCheckpointHeadMatchesMarshal requires the head writeCheckpoint
// appends to be, for any journal position and key ledger, the JSON
// encoding/json writes for the checkpointHead with its closing brace
// turned into a comma. The ledger comes as records of a length byte,
// that many key bytes and a value byte; nilLedger picks a nil map over
// an empty one when there are none.
func FuzzCheckpointHeadMatchesMarshal(f *testing.F) {
	ledger := func(keys ...string) []byte {
		var b []byte
		for i, k := range keys {
			b = append(b, byte(len(k)))
			b = append(b, k...)
			b = append(b, byte(i*37-60))
		}
		return b
	}
	f.Add(0, []byte(nil), true)
	f.Add(7, []byte{}, false)
	f.Add(12, ledger(""), false)
	f.Add(-3, ledger("key-10", "key-2", "key-1"), false)
	f.Add(1<<31-1, ledger(`"`, `\`, "<", ">", "&", `a"b\c<d>e&f`), false)
	f.Add(5, ledger("\x00", "\x01\x1f", "\b\f\n\r\t", "\x7f", "tab\there"), false)
	f.Add(9, ledger("\u2028", "\u2029", "line\u2028sep"), false)
	f.Add(11, ledger("héllo", "日本語", "emoji 🚀"), false)
	f.Add(13, ledger("\xff", "a\xc3", "\xed\xa0\x80", "ok\xfe\xffok"), false)

	f.Fuzz(func(t *testing.T, seq int, data []byte, nilLedger bool) {
		var keys map[string]int
		if !nilLedger || len(data) > 0 {
			keys = make(map[string]int)
		}
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			k := string(data[1 : 1+n])
			data = data[1+n:]
			v := 0
			if len(data) > 0 {
				v, data = int(int8(data[0]))<<20, data[1:]
			}
			keys[k] = v
		}
		want, err := json.Marshal(&checkpointHead{Seq: seq, Keys: keys})
		if err != nil {
			t.Fatal(err)
		}
		want[len(want)-1] = ','
		// Reused buffers, as the journal's are: stale bytes must not leak.
		got, scratch := appendCheckpointHead([]byte("stale"), []string{"stale"}, seq, keys)
		got, _ = appendCheckpointHead(got[:0], scratch[:0], seq, keys)
		if !bytes.Equal(got, want) {
			t.Fatalf("seq %d, %d keys: appended\n%q\nencoding/json\n%q", seq, len(keys), got, want)
		}
	})
}
