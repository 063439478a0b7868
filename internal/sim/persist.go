package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// stateVersion is bumped whenever the serialized engine layout changes
// incompatibly; RestoreEngine refuses other versions.
const stateVersion = 1

// optsFingerprint captures the simulation options that shape the
// schedule itself. A checkpoint taken under one set of physics cannot
// be resumed under another — the replayed rounds would diverge from the
// journal's recorded digests — so RestoreEngine requires an exact
// match. Reporting-only options (Validate, EventLog) may differ freely.
type optsFingerprint struct {
	RoundLength          float64   `json:"round_length_s"`
	UseModelCosts        bool      `json:"use_model_costs"`
	FlatDelay            float64   `json:"flat_delay_s"`
	QuantizeCompletions  bool      `json:"quantize_completions"`
	CheckpointContention bool      `json:"checkpoint_contention"`
	Failures             []Failure `json:"failures,omitempty"`
}

func fingerprint(o Options) optsFingerprint {
	return optsFingerprint{
		RoundLength:          o.RoundLength,
		UseModelCosts:        o.UseModelCosts,
		FlatDelay:            o.FlatDelay,
		QuantizeCompletions:  o.QuantizeCompletions,
		CheckpointContention: o.CheckpointContention,
		Failures:             o.Failures,
	}
}

func (f optsFingerprint) equal(g optsFingerprint) bool {
	a, errA := json.Marshal(f)
	b, errB := json.Marshal(g)
	return errA == nil && errB == nil && string(a) == string(b)
}

// activeJobState is the serialized form of one admitted, unfinished
// job's scheduling state.
type activeJobState struct {
	ID        int     `json:"id"`
	Remaining float64 `json:"remaining_iters"`
	Attained  float64 `json:"attained_gpu_s"`
	Rounds    int     `json:"rounds"`
	// RoundsByType is dense, indexed by gpu.Type, like the in-memory
	// array it stores.
	RoundsByType  []float64     `json:"rounds_by_type"`
	Alloc         cluster.Alloc `json:"alloc,omitempty"`
	Started       bool          `json:"started"`
	StartTime     float64       `json:"start_s"`
	Reallocations int           `json:"reallocations"`
}

// queuedEvent is the serialized form of one pending arrival or
// withdrawal. Events are stored in pop order; re-pushing them in that
// order onto a fresh queue preserves their relative priority.
type queuedEvent struct {
	Time float64 `json:"t"`
	Kind string  `json:"kind"` // "arrive" or "withdraw"
	ID   int     `json:"id"`
}

// engineState is the complete serialized engine: everything needed to
// resume stepping with byte-identical per-round schedule digests. It is
// the payload of the service's periodic checkpoints.
type engineState struct {
	Version   int             `json:"version"`
	Scheduler string          `json:"scheduler"`
	Opts      optsFingerprint `json:"opts"`
	Now       float64         `json:"now_s"`
	Round     int             `json:"round"`
	Stalled   int             `json:"stalled"`
	Cancelled int             `json:"cancelled"`
	Digest    uint64          `json:"digest"`
	// Jobs lists every submitted job in submission order; Phases is the
	// aligned lifecycle stage of each.
	Jobs   []*job.Job `json:"jobs"`
	Phases []JobPhase `json:"phases"`
	// Active preserves admission order — schedulers see jobs in this
	// order, so it is part of the schedule-determining state.
	Active          []activeJobState `json:"active"`
	Queue           []queuedEvent    `json:"queue"`
	CancelRequested []int            `json:"cancel_requested,omitempty"`
	PrevDown        []int            `json:"prev_down,omitempty"`
	Report          json.RawMessage  `json:"report"`
}

// MarshalState serializes the engine's full scheduling state for a
// checkpoint: the concatenation of AppendState's parts.
func (e *Engine) MarshalState() ([]byte, error) {
	parts, err := e.AppendState(nil)
	if err != nil {
		return nil, err
	}
	return bytes.Join(parts, nil), nil
}

// Punctuation spliced between state parts.
var (
	jsonNull     = []byte("null")
	openBracket  = []byte("[")
	closeBracket = []byte("]")
	roundStarts  = []byte(`,"RoundStarts":`)
	closeState   = []byte("}}") // the report, then the state
)

// AppendState appends the engine's serialized state to parts as byte
// slices whose concatenation is the JSON of an engineState. The four
// append-only histories — the submitted jobs and the report's results,
// per-round occupancy and round starts — come from the engine's
// encoded-history cache, so a call encodes only what was appended since
// the previous one; the rest (the header, phases, active set, queue,
// report scalars) is encoded fresh. The parts stay valid after the
// engine steps on: the cached ones are chunks the cache never writes
// again. It must be called from the goroutine driving the engine,
// between steps, on a healthy engine (a poisoned engine has nothing
// worth persisting).
func (e *Engine) AppendState(parts [][]byte) ([][]byte, error) {
	if e.err != nil {
		return nil, fmt.Errorf("sim: cannot checkpoint a failed engine: %w", e.err)
	}
	st, err := e.liveState()
	if err != nil {
		return nil, err
	}
	// The histories are left nil, so they encode as null: cut there.
	fresh, err := json.Marshal(&st)
	if err != nil {
		return nil, fmt.Errorf("sim: marshal state: %w", err)
	}
	head, mid, err := cutNulls(fresh, `,"jobs":`, `,"report":`, `}`)
	if err != nil {
		return nil, err
	}
	r := *e.report
	r.Jobs, r.RoundHeld, r.RoundStarts = nil, nil, nil
	scalars, err := json.Marshal(&r)
	if err != nil {
		return nil, fmt.Errorf("sim: marshal report: %w", err)
	}
	rhead, rmid, err := cutNulls(scalars, `,"Jobs":`, `,"RoundHeld":`, `,"RoundStarts":null}`)
	if err != nil {
		return nil, err
	}
	c := &e.encoded
	parts = append(parts, head)
	if parts, err = appendList(parts, &c.jobs, e.all, (*job.Job).AppendJSON); err != nil {
		return nil, fmt.Errorf("sim: marshal state: %w", err)
	}
	parts = append(parts, mid, rhead)
	if parts, err = appendList(parts, &c.results, e.report.Jobs, metrics.JobResult.AppendJSON); err != nil {
		return nil, fmt.Errorf("sim: marshal report: %w", err)
	}
	parts = append(parts, rmid)
	if parts, err = appendList(parts, &c.held, e.report.RoundHeld, appendHeld); err != nil {
		return nil, fmt.Errorf("sim: marshal report: %w", err)
	}
	parts = append(parts, roundStarts)
	if parts, err = appendList(parts, &c.starts, e.report.RoundStarts, appendStart); err != nil {
		return nil, fmt.Errorf("sim: marshal report: %w", err)
	}
	return append(parts, closeState), nil
}

// cutNulls cuts the encoded object b, which holds first:null somewhere
// and ends with last:null followed by end, around those two nulls: head
// runs through first, mid from after its null through last. The first
// occurrence of first is the member: inside an encoded string every
// quote is escaped, so no string holds a comma before a bare quote.
func cutNulls(b []byte, first, last, end string) (head, mid []byte, err error) {
	i := bytes.Index(b, []byte(first+"null,"))
	tail := last + "null" + end
	if i < 0 || !bytes.HasSuffix(b, []byte(tail)) {
		return nil, nil, fmt.Errorf("sim: marshal state: %.60q lacks %snull or %s", b, first, tail)
	}
	i += len(first)
	return b[:i], b[i+len("null") : len(b)-len("null"+end)], nil
}

// encodedHistory is the engine's encoded-history cache: the JSON of its
// four append-only slices, each extended by a checkpoint only by the
// elements appended since the previous one.
type encodedHistory struct {
	jobs, results, held, starts encodedList
}

// encodeBatch is the most elements appendList encodes into one chunk, so
// a cold encode (a restored engine's first checkpoint) never grows one
// buffer to the size of the history.
const encodeBatch = 256

// encodedList is the JSON encoding of a prefix of an append-only slice:
// its first n elements, comma-separated, without brackets, as the
// concatenation of chunks. A chunk holds at most encodeBatch elements,
// every chunk but the first starts with the comma that joins it on, and
// no chunk is written again once made.
type encodedList struct {
	chunks [][]byte
	n      int
	buf    []byte // the batch being encoded, reused
}

// appendList brings l up to date with s, which must have grown only by
// appends since the previous call, and appends s's JSON to parts: null
// for a nil slice, as encoding/json writes it. appendElem appends one
// element's JSON. The new elements are encoded a batch at a time, each
// batch into a chunk of its own; parts from an earlier call still join
// to their old bytes.
func appendList[T any](parts [][]byte, l *encodedList, s []T, appendElem func(T, []byte) ([]byte, error)) ([][]byte, error) {
	if s == nil {
		return append(parts, jsonNull), nil
	}
	for l.n < len(s) {
		batch := s[l.n:min(len(s), l.n+encodeBatch)]
		b := l.buf[:0]
		var err error
		for i, x := range batch {
			if i > 0 || l.n > 0 {
				b = append(b, ',')
			}
			if b, err = appendElem(x, b); err != nil {
				return nil, err
			}
		}
		l.buf = b
		l.chunks = append(l.chunks, bytes.Clone(b))
		l.n += len(batch)
	}
	parts = append(parts, openBracket)
	parts = append(parts, l.chunks...)
	return append(parts, closeBracket), nil
}

// appendHeld appends a held-worker count as encoding/json writes it.
func appendHeld(n int, b []byte) ([]byte, error) { return strconv.AppendInt(b, int64(n), 10), nil }

// appendStart appends a round start as encoding/json writes it, failing
// as it does on a non-finite one.
func appendStart(x float64, b []byte) ([]byte, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return b, fmt.Errorf("sim: unsupported round start %v", x)
	}
	return job.AppendJSONFloat(b, x), nil
}

// liveState is the part of the engine's state that is not append-only
// history, in the serialized form: everything but Jobs and Report.
func (e *Engine) liveState() (engineState, error) {
	st := engineState{
		Version:   stateVersion,
		Scheduler: e.s.Name(),
		Opts:      fingerprint(e.opts),
		Now:       e.now,
		Round:     e.round,
		Stalled:   e.stalled,
		Cancelled: e.cancelled,
		Digest:    e.digest,
	}
	st.Phases = make([]JobPhase, len(e.all))
	for i, j := range e.all {
		st.Phases[i], _ = e.Phase(j.ID)
	}
	st.Active = make([]activeJobState, 0, len(e.active))
	for _, a := range e.active {
		as := activeJobState{
			ID:            a.Job.ID,
			Remaining:     a.Remaining,
			Attained:      a.Attained,
			Rounds:        a.Rounds,
			RoundsByType:  append([]float64(nil), a.RoundsByType[:]...),
			Alloc:         a.Alloc,
			Started:       a.Started,
			StartTime:     a.StartTime,
			Reallocations: a.Reallocations,
		}
		st.Active = append(st.Active, as)
	}
	for _, ev := range e.queue.Snapshot() {
		switch p := ev.Payload.(type) {
		case arriveEvent:
			st.Queue = append(st.Queue, queuedEvent{Time: ev.Time, Kind: "arrive", ID: p.st.Job.ID})
		case withdrawEvent:
			st.Queue = append(st.Queue, queuedEvent{Time: ev.Time, Kind: "withdraw", ID: p.id})
		default:
			return st, fmt.Errorf("sim: unknown queued event payload %T", ev.Payload)
		}
	}
	st.CancelRequested = sortedIntKeys(e.cancelRequested)
	st.PrevDown = sortedIntKeys(e.prevDown)
	return st, nil
}

// sortedIntKeys returns the keys of a set in ascending order, so
// checkpoints and event emission iterate deterministically.
func sortedIntKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// RestoreEngine rebuilds an engine from MarshalState output: same
// cluster, a fresh scheduler of the same policy, and options whose
// schedule-shaping fields match the checkpoint's. The restored engine
// continues exactly where the checkpointed one stopped — same clock,
// same admission order, same pending events, same chained digest — so
// replaying the journal tail after it reproduces the original run's
// per-round digests. A fresh scheduler instance is safe only for a
// policy that derives its decisions from the per-round Context and the
// JobStates restored here, its cross-round fields being caches or
// reporting. Every policy in experiments.Policies does, which
// conformance's TestRestoreResumesEveryPolicy checks. A policy that
// learns state across rounds (throughput beliefs, say) and does not
// checkpoint it diverges from the original run at the restored
// engine's first step.
func RestoreEngine(c *cluster.Cluster, s sched.Scheduler, opts Options, data []byte) (*Engine, error) {
	var st engineState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("sim: restore: %w", err)
	}
	if st.Version != stateVersion {
		return nil, fmt.Errorf("sim: restore: state version %d, this binary speaks %d", st.Version, stateVersion)
	}
	if st.Scheduler != s.Name() {
		return nil, fmt.Errorf("sim: restore: checkpoint is for scheduler %q, got %q", st.Scheduler, s.Name())
	}
	e, err := NewEngine(c, s, opts)
	if err != nil {
		return nil, err
	}
	if fp := fingerprint(e.opts); !fp.equal(st.Opts) {
		return nil, fmt.Errorf("sim: restore: simulation options changed since checkpoint (have %+v, checkpoint %+v)", fp, st.Opts)
	}
	if len(st.Phases) != len(st.Jobs) {
		return nil, fmt.Errorf("sim: restore: %d phases for %d jobs", len(st.Phases), len(st.Jobs))
	}

	e.now = st.Now
	e.round = st.Round
	e.stalled = st.Stalled
	e.cancelled = st.Cancelled
	e.digest = st.Digest

	byID := make(map[int]*job.Job, len(st.Jobs))
	for i, j := range st.Jobs {
		if j == nil {
			return nil, fmt.Errorf("sim: restore: nil job at index %d", i)
		}
		if _, dup := byID[j.ID]; dup {
			return nil, fmt.Errorf("sim: restore: duplicate job ID %d", j.ID)
		}
		byID[j.ID] = j
		// Terminal jobs move on to the index once the report is restored.
		e.track(j, st.Phases[i])
	}
	for _, as := range st.Active {
		j, ok := byID[as.ID]
		if !ok {
			return nil, fmt.Errorf("sim: restore: active job %d not in job list", as.ID)
		}
		js := &sched.JobState{
			Job:           j,
			Remaining:     as.Remaining,
			Attained:      as.Attained,
			Rounds:        as.Rounds,
			Alloc:         as.Alloc,
			Started:       as.Started,
			StartTime:     as.StartTime,
			Reallocations: as.Reallocations,
		}
		// Entries past the known types, or not positive, read as 0.
		for t, v := range as.RoundsByType {
			if t < len(js.RoundsByType) && v > 0 {
				js.RoundsByType[t] = v
			}
		}
		e.active = append(e.active, js)
	}
	for _, ev := range st.Queue {
		switch ev.Kind {
		case "arrive":
			j, ok := byID[ev.ID]
			if !ok {
				return nil, fmt.Errorf("sim: restore: queued arrival for unknown job %d", ev.ID)
			}
			e.queue.Push(ev.Time, arriveEvent{st: &sched.JobState{Job: j, Remaining: j.TotalIters()}})
			e.pendingArrivals++
		case "withdraw":
			e.queue.Push(ev.Time, withdrawEvent{id: ev.ID})
		default:
			return nil, fmt.Errorf("sim: restore: unknown queued event kind %q", ev.Kind)
		}
	}
	for _, id := range st.CancelRequested {
		e.cancelRequested[id] = true
	}
	for _, n := range st.PrevDown {
		// SetDown rejects a node the cluster does not have.
		if err := e.freeState.SetDown(n, true); err != nil {
			return nil, fmt.Errorf("sim: restore: prev_down: %w", err)
		}
		if e.prevDown == nil {
			e.prevDown = make(map[int]bool, len(st.PrevDown))
		}
		e.prevDown[n] = true
	}
	report := &metrics.Report{}
	if err := json.Unmarshal(st.Report, report); err != nil {
		return nil, fmt.Errorf("sim: restore report: %w", err)
	}
	if report.TotalGPUs != c.TotalGPUs() {
		return nil, fmt.Errorf("sim: restore: checkpoint cluster has %d GPUs, this cluster %d",
			report.TotalGPUs, c.TotalGPUs())
	}
	e.report = report
	// Terminal jobs leave the live phases for the index: the finished in
	// report order (a job's ref is its position there), then the
	// cancelled. A finished job still live afterwards has no result.
	for i := range report.Jobs {
		id := report.Jobs[i].ID
		if p, ok := e.live[id]; !ok || p != JobFinished {
			return nil, fmt.Errorf("sim: restore: report has a result for job %d, which is not (or not only once) finished", id)
		}
		e.retire(id, i)
	}
	for i, j := range st.Jobs {
		switch st.Phases[i] {
		case JobPending, JobActive:
		case JobFinished:
			if _, ok := e.live[j.ID]; ok {
				return nil, fmt.Errorf("sim: restore: finished job %d has no result in the report", j.ID)
			}
		case JobCancelled:
			e.retire(j.ID, cancelledRef)
		default:
			return nil, fmt.Errorf("sim: restore: job %d has unknown phase %d", j.ID, st.Phases[i])
		}
	}
	// NewEngine's fresh invariant checker (when Validate is on) picks up
	// at the next round; per-round checks are self-contained and the
	// final report check runs against the restored report and job list.
	return e, nil
}
