package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/federation"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/wal"
)

// Recovery describes what a WAL recovery did; Service.Recovery exposes
// it for hadard's startup log and for the crash tests' assertions.
type Recovery struct {
	// CheckpointSeq is the journal index the loaded checkpoint
	// embodied (0 when recovery started from a fresh engine).
	CheckpointSeq int `json:"checkpoint_seq"`
	// CheckpointCorrupt reports that a checkpoint file existed but
	// failed its integrity check, forcing a full-journal replay.
	CheckpointCorrupt bool `json:"checkpoint_corrupt,omitempty"`
	// Replayed is the number of journal records applied on top of the
	// checkpoint.
	Replayed int `json:"replayed"`
	// RoundsVerified counts replayed round records whose recorded
	// digest matched the engine's — the proof that the recovered
	// schedule is byte-identical to the pre-crash one.
	RoundsVerified int `json:"rounds_verified"`
	// TruncatedBytes is the size of the torn or corrupt journal tail
	// discarded before replay (0 on a clean shutdown).
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
}

// recoverJournal restores fed from the latest valid checkpoint plus the
// journal tail, fills keys with the recovered ledger, and reopens the
// journal for appending after the last valid record. Damage tolerated:
// missing checkpoint (full replay), corrupt checkpoint (full replay),
// torn or corrupt final journal record (truncated at the last valid
// frame), missing journal (fresh start). Damage refused: a journal
// whose valid prefix contradicts the recorded round digests, which
// means the replayed schedule would not match what clients observed.
func recoverJournal(fed *federation.Federation, keys map[string]int, cfg WALConfig) (*journal, error) {
	scan, err := wal.Scan(journalPath(cfg.Dir))
	if err != nil {
		return nil, fmt.Errorf("service: recover: %w", err)
	}
	info := &Recovery{TruncatedBytes: scan.TruncatedBytes}

	var doc checkpointDoc
	haveCkpt := false
	raw, err := wal.ReadCheckpoint(checkpointPath(cfg.Dir))
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &doc); err != nil {
			info.CheckpointCorrupt = true
		} else {
			haveCkpt = true
		}
	case errors.Is(err, os.ErrNotExist):
		// First boot or checkpoint never written: full replay.
	case errors.Is(err, wal.ErrCorrupt):
		info.CheckpointCorrupt = true
	default:
		return nil, fmt.Errorf("service: recover: %w", err)
	}

	j := &journal{cfg: cfg, fed: fed, recovery: info}
	validSize := scan.ValidSize
	records := scan.Records
	if haveCkpt {
		if doc.Engine != nil {
			doc.Members = []json.RawMessage{doc.Engine}
		}
		if err := fed.RestoreState(doc.State); err != nil {
			return nil, fmt.Errorf("service: recover: %w", err)
		}
		//lint:ignore maprange map-to-map copy; no output depends on visit order
		for k, id := range doc.Keys {
			keys[k] = id
		}
		info.CheckpointSeq = doc.Seq
		if doc.Seq > len(records) {
			// The checkpoint is ahead of the surviving journal: a
			// machine crash under a lax sync policy lost journaled
			// records that the fsynced checkpoint embodies. Restart
			// journal addressing from zero so frame indices and
			// checkpoint sequence numbers stay aligned. (A restarted
			// journal no longer supports VerifyWAL's full replay.)
			records = nil
			validSize = 0
		} else {
			records = records[doc.Seq:]
			j.applied = doc.Seq
		}
	}

	tally, err := replayRecords(fed, keys, records)
	if err != nil {
		return nil, fmt.Errorf("service: recover: %w", err)
	}
	j.applied += len(records)
	info.Replayed = len(records)
	info.RoundsVerified = tally.Rounds

	if j.w, err = wal.OpenAppend(journalPath(cfg.Dir), validSize, cfg.Policy, cfg.FS); err != nil {
		return nil, fmt.Errorf("service: reopen journal: %w", err)
	}
	// Re-anchor the checkpoint at the recovered position: this bounds
	// the next crash's replay and, after a checkpoint-ahead-of-journal
	// recovery, realigns the checkpoint sequence with the (restarted)
	// journal frame count.
	if j.applied > 0 || info.CheckpointSeq > 0 {
		j.writeCheckpoint(keys)
	}
	return j, nil
}

// replayRecords applies journal records to a federation in order. Every
// record was journaled only after the live federation accepted the same
// mutation against the same state, so replay must accept them too. A
// submission goes to the member the record names — never through the
// Router — and a round record must name the member the shared clock
// steps next and carry the round and digest the replay then reaches;
// any disagreement aborts the replay. A refused submission or
// cancellation leaves the federation and the ledger as they were. The
// tally counts what was applied, in VerifyResult's Rounds, Submitted
// and Cancelled; every counted round was digest-verified.
func replayRecords(fed *federation.Federation, keys map[string]int, records [][]byte) (tally VerifyResult, err error) {
	for i, payload := range records {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return tally, fmt.Errorf("record %d: %w", i, err)
		}
		switch rec.Type {
		case recSubmit:
			if rec.Job == nil {
				return tally, fmt.Errorf("record %d: submit without job", i)
			}
			if err := fed.SubmitTo(rec.Member, rec.Job); err != nil {
				return tally, fmt.Errorf("record %d: replay submit %d: %w", i, rec.Job.ID, err)
			}
			if rec.Key != "" {
				keys[rec.Key] = rec.Job.ID
			}
			tally.Submitted++
		case recCancel:
			if err := fed.CancelJob(rec.ID); err != nil {
				return tally, fmt.Errorf("record %d: replay cancel %d: %w", i, rec.ID, err)
			}
			tally.Cancelled++
		case recRound:
			if next := fed.NextMember(); next < 0 || next != rec.Member {
				return tally, fmt.Errorf("record %d: journal stepped member %d, replay would step %d (-1: nothing pending)",
					i, rec.Member, next)
			}
			if err := fed.ProcessNextEvent(); err != nil {
				return tally, fmt.Errorf("record %d: replay round %d: %w", i, rec.Round, err)
			}
			got := roundRecord(rec.Member, fed.Snapshot())
			if got.Round != rec.Round {
				return tally, fmt.Errorf("record %d: replay reached round %d, journal recorded %d", i, got.Round, rec.Round)
			}
			if got.Digest != rec.Digest {
				return tally, fmt.Errorf("record %d: round %d digest %#x diverges from journal %#x",
					i, rec.Round, got.Digest, rec.Digest)
			}
			tally.Rounds++
		default:
			return tally, fmt.Errorf("record %d: unknown type %q", i, rec.Type)
		}
	}
	return tally, nil
}

// VerifyResult is VerifyWAL's summary of a full-journal replay.
type VerifyResult struct {
	// Records is the total number of valid journal records.
	Records int `json:"records"`
	// Rounds counts round records, every one digest-verified.
	Rounds int `json:"rounds"`
	// Submitted and Cancelled count mutation records.
	Submitted int `json:"submitted"`
	Cancelled int `json:"cancelled"`
	// Digest is the federation's digest (for one member, its engine's
	// chained digest) after replaying the whole journal — the schedule
	// an uninterrupted run would have produced.
	Digest uint64 `json:"digest"`
	// Jobs maps idempotency keys to job IDs, for cross-checking a
	// client-side ledger.
	Jobs map[string]int `json:"jobs,omitempty"`
	// TruncatedBytes is the discarded torn tail, if any.
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
}

// VerifyWAL replays the entire journal in dir from a fresh engine —
// ignoring any checkpoint — and digest-verifies every round record.
// The journal is the canonical operation sequence, so this replay IS
// the uninterrupted run; comparing its digest with the recovered
// service's proves crash-and-recover changed nothing.
func VerifyWAL(c *cluster.Cluster, s sched.Scheduler, simOpts sim.Options, dir string) (*VerifyResult, error) {
	fed, err := single(c, s, simOpts)
	if err != nil {
		return nil, err
	}
	return VerifyFedWAL(fed, dir)
}

// VerifyFedWAL is VerifyWAL against a fresh federation built like the
// one the journaling service was given; Digest is Federation.Digest.
func VerifyFedWAL(fed *federation.Federation, dir string) (*VerifyResult, error) {
	scan, err := wal.Scan(journalPath(dir))
	if err != nil {
		return nil, fmt.Errorf("service: verify: %w", err)
	}
	jobs := make(map[string]int)
	res, err := replayRecords(fed, jobs, scan.Records)
	if err != nil {
		return nil, fmt.Errorf("service: verify: %w", err)
	}
	res.Records, res.Jobs, res.TruncatedBytes = len(scan.Records), jobs, scan.TruncatedBytes
	res.Digest = fed.Digest()
	return &res, nil
}
