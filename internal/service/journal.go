package service

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"repro/internal/federation"
	"repro/internal/job"
	"repro/internal/wal"
)

// WALConfig enables the write-ahead journal: every accepted mutation
// (submission, cancellation, round boundary) is appended to a
// CRC-framed journal before the verdict returns to the caller, and the
// engine state is checkpointed periodically so recovery replays a
// bounded tail.
type WALConfig struct {
	// Dir holds the journal (journal.wal) and checkpoint
	// (checkpoint.ckpt) files. It must exist.
	Dir string
	// Policy selects durability: SyncAlways fsyncs before every verdict
	// (survives machine crashes), SyncGroup batches fsyncs across
	// concurrent requests and defers their verdicts until the batch is
	// on disk, SyncOff never fsyncs (survives process kills via the
	// page cache, not machine crashes).
	Policy wal.SyncPolicy
	// GroupInterval bounds how long a SyncGroup verdict may wait for
	// its batch fsync. Default 2ms.
	GroupInterval time.Duration
	// CheckpointEvery is the number of journal records between engine
	// checkpoints. Default 256.
	CheckpointEvery int
	// Recover resumes from existing state in Dir — latest valid
	// checkpoint plus journal tail — and starts fresh when Dir is
	// empty. Without Recover, New refuses a Dir that already has a
	// journal rather than silently overwriting it.
	Recover bool
	// FS receives every write the journal and checkpoints make (see
	// wal.FS); nil is the operating system. Tests record and fault it.
	FS wal.FS
}

func (c *WALConfig) normalize() {
	if c.GroupInterval <= 0 {
		c.GroupInterval = 2 * time.Millisecond
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 256
	}
}

func journalPath(dir string) string    { return filepath.Join(dir, "journal.wal") }
func checkpointPath(dir string) string { return filepath.Join(dir, "checkpoint.ckpt") }

// Journal record types. Submission and cancellation records are
// appended after the federation accepts the mutation and before the
// caller sees the verdict; round records are appended after every
// processed boundary and carry the federation's digest so recovery can
// prove the replayed schedule is byte-identical to the original.
const (
	recSubmit = "submit"
	recCancel = "cancel"
	recRound  = "round"
)

// walRecord is the JSON payload of one journal frame.
type walRecord struct {
	Type string `json:"type"`
	// Key is the submission's idempotency key, if any.
	Key string   `json:"key,omitempty"`
	Job *job.Job `json:"job,omitempty"`
	// ID is the cancellation target.
	ID int `json:"id,omitempty"`
	// Member is the member that accepted the submission or that the
	// boundary stepped. Replay submits to it and never asks the Router,
	// so a router that changed since the journal was written cannot
	// move a recovered job. Member 0 is left out, so a federation of
	// one writes the journal a bare engine used to.
	Member int `json:"member,omitempty"`
	// Round and Now are the stepped member's immediately after a
	// processed boundary, Digest the federation's (Federation.Digest;
	// for one member, that engine's).
	Round  int     `json:"round,omitempty"`
	Now    float64 `json:"now_s,omitempty"`
	Digest uint64  `json:"digest,omitempty"`
}

// roundRecord describes the boundary that member just processed, from
// the snapshot taken after it; recovery compares the replay's to the
// journal's.
func roundRecord(member int, snap *federation.FedSnapshot) walRecord {
	ms := snap.Members[member].Snap
	return walRecord{Type: recRound, Member: member, Round: ms.Round, Now: ms.Now, Digest: snap.Digest}
}

// appendWALRecord appends the JSON encoding/json writes for rec, field
// by field, the job through job.AppendJSON: a journaled submission
// costs no encoder state and no copy of its job's bytes.
func appendWALRecord(b []byte, rec *walRecord) ([]byte, error) {
	b = job.AppendJSONString(append(b, `{"type":`...), rec.Type)
	if rec.Key != "" {
		b = job.AppendJSONString(append(b, `,"key":`...), rec.Key)
	}
	if rec.Job != nil {
		var err error
		if b, err = rec.Job.AppendJSON(append(b, `,"job":`...)); err != nil {
			return b, err
		}
	}
	if rec.ID != 0 {
		b = strconv.AppendInt(append(b, `,"id":`...), int64(rec.ID), 10)
	}
	if rec.Member != 0 {
		b = strconv.AppendInt(append(b, `,"member":`...), int64(rec.Member), 10)
	}
	if rec.Round != 0 {
		b = strconv.AppendInt(append(b, `,"round":`...), int64(rec.Round), 10)
	}
	//lint:ignore floateq omitempty's own test: only an exact zero is left out
	if rec.Now != 0 {
		if math.IsNaN(rec.Now) || math.IsInf(rec.Now, 0) {
			return b, fmt.Errorf("service: unsupported round time %v", rec.Now)
		}
		b = job.AppendJSONFloat(append(b, `,"now_s":`...), rec.Now)
	}
	if rec.Digest != 0 {
		b = strconv.AppendUint(append(b, `,"digest":`...), rec.Digest, 10)
	}
	return append(b, '}'), nil
}

// checkpointDoc is the payload of the checkpoint file: the serialized
// federation plus the service-level state that must survive with it.
type checkpointDoc struct {
	checkpointHead
	// State is one sim.Engine.AppendState section per member plus the
	// routing cursor.
	federation.State
	// Engine is what a service older than the member sections wrote in
	// their place: its one engine, which restores as member 0.
	Engine json.RawMessage `json:"engine,omitempty"`
}

// checkpointHead is the members of a checkpoint ahead of the
// federation's.
type checkpointHead struct {
	// Seq is the number of journal records the checkpointed state
	// embodies; recovery replays the journal from this index.
	Seq int `json:"seq"`
	// Keys is the idempotent-submission ledger (key -> job ID).
	Keys map[string]int `json:"keys,omitempty"`
}

// pendingVerdict is a group-commit deferral: the mutation is applied
// and journaled but not yet fsynced, so the caller's verdict waits for
// the batch sync.
type pendingVerdict struct {
	reply chan verdict
	v     verdict
}

// journal is a service's durability state, owned by the run goroutine
// (or set once in New before Start). A service without a WAL has a nil
// *journal; the methods the loop calls unconditionally accept that.
type journal struct {
	cfg WALConfig
	w   *wal.Writer
	// fed is the journaled federation, for checkpoints.
	fed *federation.Federation
	// applied counts journal records ever appended or replayed; it is
	// the checkpoint's replay cursor.
	applied   int
	sinceCkpt int
	// pending holds group-commit verdicts awaiting the batch fsync.
	pending       []pendingVerdict
	groupDeadline time.Time
	// err is the sticky journal failure; once set the loop exits and
	// every later request is refused with it.
	err error
	// recovery describes what startup recovery did (nil for a journal
	// created fresh without Recover).
	recovery *Recovery
	// rec holds each journal record's JSON, head and ledger each
	// checkpoint's head and its sorted keys; all are reused from write
	// to write.
	rec    []byte
	head   []byte
	ledger []string
}

// openJournal opens the durability state in cfg.Dir for a fresh
// federation: a new journal or, with cfg.Recover, the existing one,
// restoring fed and keys to the journaled state.
func openJournal(fed *federation.Federation, keys map[string]int, cfg WALConfig) (*journal, error) {
	cfg.normalize()
	if cfg.Recover {
		return recoverJournal(fed, keys, cfg)
	}
	if _, err := os.Stat(journalPath(cfg.Dir)); err == nil {
		return nil, fmt.Errorf("service: %s already has a journal; pass Recover to resume it or remove it first",
			cfg.Dir)
	}
	w, err := wal.Create(journalPath(cfg.Dir), cfg.Policy, cfg.FS)
	if err != nil {
		return nil, fmt.Errorf("service: create journal: %w", err)
	}
	return &journal{cfg: cfg, w: w, fed: fed}, nil
}

// failure returns the sticky journal error, nil without a journal.
func (j *journal) failure() error {
	if j == nil {
		return nil
	}
	return j.err
}

// commit makes one accepted mutation durable per the sync policy and
// delivers its verdict. The record is already applied to the backend;
// commit appends it to the journal and either replies immediately
// (SyncAlways fsyncs inside Append; SyncOff trades durability for
// latency) or defers the reply until the next group sync.
func (s *Service) commit(rec walRecord, reply chan verdict, v verdict) {
	if s.journal == nil {
		reply <- v
		return
	}
	if err := s.journal.appendRecord(rec); err != nil {
		reply <- verdict{err: fmt.Errorf("service: journal append: %w", err)}
		return
	}
	if j := s.journal; j.w.Policy() == wal.SyncGroup {
		if len(j.pending) == 0 {
			j.groupDeadline = time.Now().Add(j.cfg.GroupInterval)
		}
		j.pending = append(j.pending, pendingVerdict{reply: reply, v: v})
		return
	}
	reply <- v
}

// release delivers a verdict that journals nothing — a deduplicated
// retry — once what it reports is durable: at once, unless group-commit
// verdicts are waiting, when the original may be in that unsynced batch
// and the verdict joins it.
func (j *journal) release(reply chan verdict, v verdict) {
	if j == nil || len(j.pending) == 0 {
		reply <- v
		return
	}
	j.pending = append(j.pending, pendingVerdict{reply: reply, v: v})
}

// appendRecord marshals and appends one journal frame, tracking the
// absolute record count for checkpoint addressing. A failed append
// poisons the journal path: err sticks and the run loop exits.
func (j *journal) appendRecord(rec walRecord) error {
	if j.err != nil {
		return j.err
	}
	var err error
	if j.rec, err = appendWALRecord(j.rec[:0], &rec); err != nil {
		j.err = err
		return err
	}
	if err := j.w.Append(j.rec); err != nil {
		j.err = err
		return err
	}
	j.applied++
	j.sinceCkpt++
	return nil
}

// groupTimer returns a channel that fires when the oldest deferred
// verdict's group-commit deadline expires, or nil (blocks forever)
// when nothing is deferred.
func (j *journal) groupTimer() <-chan time.Time {
	if j == nil || len(j.pending) == 0 {
		return nil
	}
	d := time.Until(j.groupDeadline)
	if d < 0 {
		d = 0
	}
	return time.After(d)
}

// flushGroup syncs the journal and releases every deferred verdict.
// With force false it only acts once the group deadline has passed.
func (j *journal) flushGroup(force bool) {
	if j == nil || len(j.pending) == 0 {
		return
	}
	if !force && time.Now().Before(j.groupDeadline) {
		return
	}
	err := j.w.Sync()
	if err != nil {
		j.err = err
		err = fmt.Errorf("service: journal sync: %w", err)
	}
	for _, p := range j.pending {
		if err != nil {
			p.reply <- verdict{err: err}
		} else {
			p.reply <- p.v
		}
	}
	j.pending = j.pending[:0]
}

// maybeCheckpoint writes a checkpoint once enough journal
// records have accumulated since the last one. Checkpoint failures are
// not fatal: the journal remains the source of truth and recovery
// simply replays a longer tail.
func (j *journal) maybeCheckpoint(keys map[string]int) {
	if j == nil || j.sinceCkpt < j.cfg.CheckpointEvery {
		return
	}
	j.writeCheckpoint(keys)
}

// writeCheckpoint persists the federation and key ledger at the current
// journal position: the JSON of a checkpointDoc, streamed from the
// federation's state parts. Success or not, the next periodic attempt
// waits another CheckpointEvery records, so a disk that refuses
// checkpoints does not cost every boundary a full encode and write.
func (j *journal) writeCheckpoint(keys map[string]int) {
	j.sinceCkpt = 0
	j.head, j.ledger = appendCheckpointHead(j.head[:0], j.ledger[:0], j.applied, keys)
	parts, err := j.fed.AppendState([][]byte{j.head})
	if err != nil {
		return // a poisoned federation has nothing worth persisting
	}
	wal.WriteCheckpointFS(j.cfg.FS, checkpointPath(j.cfg.Dir), parts)
}

// appendCheckpointHead appends to dst the JSON of a checkpointHead with
// its closing brace turned into the comma the federation's members
// follow, byte for byte as encoding/json writes it. ledger is scratch
// space for the sorted keys; both grown slices are returned for reuse.
func appendCheckpointHead(dst []byte, ledger []string, seq int, keys map[string]int) ([]byte, []string) {
	dst = strconv.AppendInt(append(dst, `{"seq":`...), int64(seq), 10)
	dst = append(dst, ',')
	if len(keys) == 0 {
		return dst, ledger // omitempty
	}
	for k := range keys {
		ledger = append(ledger, k)
	}
	slices.Sort(ledger) // encoding/json's order for string keys
	dst = append(dst, `"keys":{`...)
	for i, k := range ledger {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = job.AppendJSONString(dst, k)
		dst = strconv.AppendInt(append(dst, ':'), int64(keys[k]), 10)
	}
	return append(dst, "},"...), ledger
}
