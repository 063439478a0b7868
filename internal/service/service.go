// Package service runs a federation.Federation — one sim.Engine or
// many behind one front door — as a long-lived online scheduler.
//
// The batch simulator answers "what would this trace have cost"; the
// service answers "what is the cluster doing right now". A single
// goroutine owns the federation and is the only code that ever touches
// it: it drains a bounded admission queue, processes one round boundary
// at a time, and publishes an immutable snapshot through an atomic
// pointer after every boundary. Readers (HTTP handlers, dashboards,
// load drivers) only ever see published snapshots, so they never
// contend with the scheduler. A single cluster is a federation of one:
// there is one Service, one loop and one journal format.
//
// Admission control is explicit: Submit and Cancel enqueue requests on
// a channel of configurable depth. When the queue is full the call
// fails fast with a *BusyError carrying a retry hint instead of
// blocking the caller — backpressure propagates to the client, the
// engine is never swamped.
//
// The engine's virtual clock is decoupled from the wall clock by
// Options.Clock: VirtualClock processes boundaries as fast as the CPU
// allows (simulation as a service), WallClock paces one boundary per
// RoundInterval of real time (a control plane bound to external time).
package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/federation"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
)

// ClockMode selects how simulated round boundaries map to real time.
type ClockMode int

const (
	// VirtualClock processes round boundaries as fast as possible; the
	// simulated clock races ahead of the wall clock. This is the mode
	// for capacity studies and load testing.
	VirtualClock ClockMode = iota
	// WallClock processes at most one round boundary per RoundInterval
	// of real time, so the service behaves like a live control plane
	// with a compressed round length.
	WallClock
)

// String names the mode.
func (m ClockMode) String() string {
	switch m {
	case VirtualClock:
		return "virtual"
	case WallClock:
		return "wall"
	}
	return fmt.Sprintf("ClockMode(%d)", int(m))
}

// Options configures the service.
type Options struct {
	// Sim configures the engine New builds. Enable Sim.Validate to run
	// the invariant oracle on every round (sim.ValidatedOptions). NewFed
	// ignores it: a federation's members carry their own sim.Options.
	Sim sim.Options
	// QueueDepth bounds the admission queue: at most this many
	// submit/cancel requests may be waiting for the engine goroutine
	// before further calls fail with *BusyError. Default 64.
	QueueDepth int
	// RetryAfter is the backpressure hint attached to BusyError.
	// Default: RoundInterval in WallClock mode, 10ms in VirtualClock.
	RetryAfter time.Duration
	// Clock selects virtual (as-fast-as-possible) or wall-paced rounds.
	Clock ClockMode
	// RoundInterval is the real time per round boundary in WallClock
	// mode. Default 50ms.
	RoundInterval time.Duration
	// RequestTimeout bounds how long Submit/Cancel wait for the engine
	// goroutine's verdict after enqueueing; expiry returns *DeadError
	// instead of blocking forever on a wedged loop. Default 30s;
	// negative disables the deadline.
	RequestTimeout time.Duration
	// WAL, when non-nil, enables the write-ahead journal: accepted
	// mutations are made durable before their verdicts return, and the
	// service can recover its exact state after a crash.
	WAL *WALConfig
}

func (o *Options) normalize() {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.RoundInterval <= 0 {
		o.RoundInterval = 50 * time.Millisecond
	}
	if o.RetryAfter <= 0 {
		if o.Clock == WallClock {
			o.RetryAfter = o.RoundInterval
		} else {
			o.RetryAfter = 10 * time.Millisecond
		}
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
}

// ErrStopped is returned by Submit/Cancel once the service has shut
// down (or its engine hit a sticky error and the loop exited).
var ErrStopped = errors.New("service: scheduler service stopped")

// ErrKilled is the final error of a service terminated by Kill: a
// simulated crash that skips every graceful-shutdown step.
var ErrKilled = errors.New("service: killed")

// DeadError reports that the engine goroutine did not deliver a
// verdict within Options.RequestTimeout. The request may or may not
// have been applied; an idempotency key makes the retry safe.
type DeadError struct{ Waited time.Duration }

// Error describes the expired deadline.
func (e *DeadError) Error() string {
	return fmt.Sprintf("service: no verdict within %v", e.Waited)
}

// BusyError reports a full admission queue: the caller should back off
// for RetryAfter and resubmit. It maps to HTTP 429 + Retry-After.
type BusyError struct{ RetryAfter time.Duration }

// Error describes the backpressure signal.
func (e *BusyError) Error() string {
	return fmt.Sprintf("service: admission queue full, retry after %v", e.RetryAfter)
}

// Stats counts the service's admission-control outcomes. All counters
// are cumulative since Start.
type Stats struct {
	// Accepted counts submissions the engine admitted.
	Accepted int64 `json:"accepted"`
	// RejectedBusy counts submissions bounced by the full queue.
	RejectedBusy int64 `json:"rejected_busy"`
	// RejectedInvalid counts submissions the engine refused
	// (validation failure, impossible placement, duplicate ID).
	RejectedInvalid int64 `json:"rejected_invalid"`
	// Cancelled counts cancellations the engine accepted.
	Cancelled int64 `json:"cancelled"`
	// Deduped counts keyed submissions answered from the idempotency
	// ledger without touching the engine.
	Deduped int64 `json:"deduped"`
	// Rounds counts processed round boundaries (including idle
	// fast-forwards).
	Rounds int64 `json:"rounds"`
}

type reqKind int

const (
	submitReq reqKind = iota
	cancelReq
)

// request is one admission-queue entry; reply carries the engine's
// verdict back to the caller (buffered so the loop never blocks).
type request struct {
	kind reqKind
	job  *job.Job
	id   int
	// key is the submission's idempotency ledger key ("" for unkeyed).
	key   string
	reply chan verdict
}

// verdict is the engine goroutine's answer to one request.
type verdict struct {
	// id is the accepted job's ID (submissions) or the cancelled
	// job's (cancellations).
	id int
	// deduped marks a keyed submission answered from the ledger.
	deduped bool
	err     error
}

// Service fronts one federation with a goroutine-owned event loop,
// bounded admission, and lock-free snapshot reads. Create with New or
// NewFed, then Start. All exported methods are safe for concurrent use.
type Service struct {
	opts Options

	fed  *federation.Federation // owned by the run goroutine after Start
	reqs chan request

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	stopped   chan struct{}

	snap atomic.Pointer[federation.FedSnapshot]

	accepted        atomic.Int64
	rejectedBusy    atomic.Int64
	rejectedInvalid atomic.Int64
	cancelled       atomic.Int64
	deduped         atomic.Int64
	rounds          atomic.Int64
	nextID          atomic.Int64

	// killed marks a simulated crash: shutdown aborts the journal and
	// skips the final checkpoint.
	killed atomic.Bool

	// The fields below are owned by the run goroutine (or set once
	// before Start).

	// keys is the idempotency ledger: submission key -> accepted job
	// ID. With a journal it is journaled with submissions and
	// checkpointed; without one it lives in memory.
	keys map[string]int
	// journal holds every piece of durability state; nil without a WAL.
	journal *journal

	// finalReport/finalErr are written by the run goroutine before it
	// closes stopped and read only after <-stopped.
	finalReport *federation.Report
	finalErr    error
}

// New builds a service over a single cluster: a federation of one
// member, named after its scheduler, behind the front door every
// service has. See NewFed for the journal and recovery.
func New(c *cluster.Cluster, s sched.Scheduler, opts Options) (*Service, error) {
	fed, err := single(c, s, opts.Sim)
	if err != nil {
		return nil, err
	}
	return NewFed(fed, opts)
}

// single is the federation New serves: one member, named after its
// scheduler, so the web pages list what a bare engine's would.
func single(c *cluster.Cluster, s sched.Scheduler, simOpts sim.Options) (*federation.Federation, error) {
	return federation.New([]federation.MemberConfig{{Name: s.Name(), Cluster: c, Scheduler: s, Sim: simOpts}},
		federation.RoundRobin{})
}

// NewFed builds a service over a fresh federation, which it owns from
// here on — or, with Options.WAL in Recover mode, over that federation
// restored from the journal and checkpoint in WAL.Dir. The service is
// inert until Start; requests submitted before Start wait in the
// admission queue.
func NewFed(fed *federation.Federation, opts Options) (*Service, error) {
	opts.normalize()
	s := &Service{
		opts:    opts,
		fed:     fed,
		keys:    make(map[string]int),
		reqs:    make(chan request, opts.QueueDepth),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	if opts.WAL != nil {
		var err error
		if s.journal, err = openJournal(fed, s.keys, *opts.WAL); err != nil {
			return nil, err
		}
	}
	s.snap.Store(fed.Snapshot())
	// Auto-assigned IDs start high, clear of trace-style sequential IDs
	// chosen by clients and, after recovery, of every journaled ID.
	next := 1 << 20
	for _, m := range s.Snapshot().Members {
		if id, ok := m.Snap.Phases.MaxID(); ok && id > next {
			next = id
		}
	}
	s.nextID.Store(int64(next))
	return s, nil
}

// Recovery reports what startup recovery did, or nil when the service
// did not recover from a journal.
func (s *Service) Recovery() *Recovery {
	if s.journal == nil {
		return nil
	}
	return s.journal.recovery
}

// Kill simulates a crash: the loop exits without draining the
// admission queue, flushing the journal, or writing a final
// checkpoint, exactly as if the process had died. Stop afterwards
// returns ErrKilled. The journal is left as a real crash would leave
// it, so a new service can Recover from it.
func (s *Service) Kill() {
	s.killed.Store(true)
	s.Start() // an unstarted service can still be killed
	s.stopOnce.Do(func() { close(s.stop) })
}

// Start launches the run goroutine. Safe to call once; later calls
// are no-ops.
func (s *Service) Start() {
	s.startOnce.Do(func() { go s.run() })
}

// Stop shuts the loop down, drains the admission queue with ErrStopped
// replies, finalizes the federation, and returns its report. Safe to call
// multiple times and after a federation failure; every call returns the
// same result.
func (s *Service) Stop() (*federation.Report, error) {
	s.Start() // a never-started service still terminates cleanly
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.stopped
	return s.finalReport, s.finalErr
}

// Submit asks the federation to route the job to a member and admit it
// at that member's next round boundary. It fails fast with *BusyError
// when the admission queue is full and with ErrStopped after shutdown;
// any other error is the validation verdict (bad job, impossible
// placement, duplicate ID). With a journal enabled the verdict is
// durable before it returns.
func (s *Service) Submit(j *job.Job) error {
	return s.send(request{kind: submitReq, job: j}).err
}

// SubmitKeyed is Submit with an idempotency key: resubmitting the same
// key — after a timeout, a crash, or a retried HTTP request — returns
// the originally accepted job's ID with deduped true instead of
// admitting a duplicate. With a journal the key ledger is journaled
// and survives recovery.
func (s *Service) SubmitKeyed(key string, j *job.Job) (id int, deduped bool, err error) {
	v := s.send(request{kind: submitReq, job: j, key: key})
	return v.id, v.deduped, v.err
}

// Cancel withdraws a submitted job (pending or running) at the next
// boundary. Backpressure and shutdown behave exactly as in Submit.
func (s *Service) Cancel(id int) error {
	return s.send(request{kind: cancelReq, id: id}).err
}

// verdictWait is what one caller of send waits on: the reply channel
// the loop writes the verdict to and the RequestTimeout timer. It is
// reused through verdictWaits, but only once its verdict was received:
// a request that timed out or met a stop may still be answered, so its
// verdictWait is dropped.
type verdictWait struct {
	reply chan verdict
	timer *time.Timer
}

var verdictWaits = sync.Pool{New: func() any { return &verdictWait{reply: make(chan verdict, 1)} }}

// arm starts the wait's deadline d from now (nil: none).
func (w *verdictWait) arm(d time.Duration) <-chan time.Time {
	if d <= 0 {
		return nil
	}
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		w.timer.Reset(d)
	}
	return w.timer.C
}

// disarm stops the wait's timer and drains an expiry it may already
// have delivered. go.mod's go 1.22 keeps timer channels asynchronous:
// a timer that fired before Stop holds its tick in the channel, and the
// next wait would read it as a stale deadline.
func (w *verdictWait) disarm() {
	if w.timer != nil && !w.timer.Stop() {
		select {
		case <-w.timer.C:
		default:
		}
	}
}

func (s *Service) send(r request) verdict {
	select {
	case <-s.stopped:
		return verdict{err: ErrStopped}
	default:
	}
	w := verdictWaits.Get().(*verdictWait)
	r.reply = w.reply
	select {
	case s.reqs <- r:
	default:
		verdictWaits.Put(w)
		s.rejectedBusy.Add(1)
		return verdict{err: &BusyError{RetryAfter: s.opts.RetryAfter}}
	}
	deadline := w.arm(s.opts.RequestTimeout)
	select {
	case v := <-r.reply:
		w.disarm()
		verdictWaits.Put(w)
		return v
	case <-s.stopped:
		// The loop drains the queue before closing stopped, so a reply
		// may already be waiting; prefer it over the shutdown signal.
		w.disarm()
		select {
		case v := <-r.reply:
			verdictWaits.Put(w)
			return v
		default:
			return verdict{err: ErrStopped}
		}
	case <-deadline:
		return verdict{err: &DeadError{Waited: s.opts.RequestTimeout}}
	}
}

// NextID returns a fresh job ID from the service's own range, for
// clients that do not pick their own.
func (s *Service) NextID() int { return int(s.nextID.Add(1)) }

// Snapshot returns the most recently published immutable view. It
// never blocks and never observes a half-updated federation.
func (s *Service) Snapshot() *federation.FedSnapshot { return s.snap.Load() }

// Stats returns the cumulative admission-control counters.
func (s *Service) Stats() Stats {
	return Stats{
		Accepted:        s.accepted.Load(),
		RejectedBusy:    s.rejectedBusy.Load(),
		RejectedInvalid: s.rejectedInvalid.Load(),
		Cancelled:       s.cancelled.Load(),
		Deduped:         s.deduped.Load(),
		Rounds:          s.rounds.Load(),
	}
}

// run is the owning goroutine: the sole user of s.fed from Start to
// stopped. Each pass handles every waiting request, flushes a group
// commit whose deadline has passed, and then processes one boundary if
// one is due — under VirtualClock whenever the federation has work,
// under WallClock once per RoundInterval tick (a tick that finds no
// work is dropped). Otherwise it blocks on a request, the group timer,
// the tick or stop.
func (s *Service) run() {
	defer close(s.stopped)
	defer s.shutdown()
	var tick <-chan time.Time
	if s.opts.Clock == WallClock {
		t := time.NewTicker(s.opts.RoundInterval)
		defer t.Stop()
		tick = t.C
	}
	ticked := false
	for {
		// Batch every waiting request into this boundary.
		for {
			select {
			case r := <-s.reqs:
				s.handle(r)
				continue
			case <-s.stop:
				return
			default:
			}
			break
		}
		if s.journal.failure() != nil {
			return
		}
		s.journal.flushGroup(false)
		due := tick == nil || ticked
		ticked = false
		if due && s.fed.HasPendingEvents() {
			if !s.processBoundary() {
				return
			}
			s.journal.maybeCheckpoint(s.keys)
			continue
		}
		select {
		case r := <-s.reqs:
			s.handle(r)
		case <-s.journal.groupTimer():
			s.journal.flushGroup(true)
		case <-tick:
			ticked = true
		case <-s.stop:
			return
		}
	}
}

// processBoundary advances the federation one boundary, publishes a
// fresh snapshot, and journals the boundary; false means the federation
// or journal hit a sticky error and the loop must exit. Its round
// record is not fsynced (see journal.appendRecord).
func (s *Service) processBoundary() bool {
	member := s.fed.NextMember()
	if err := s.fed.ProcessNextEvent(); err != nil {
		return false
	}
	s.rounds.Add(1)
	snap := s.fed.Snapshot()
	s.snap.Store(snap)
	return s.journal == nil || s.journal.appendRecord(roundRecord(member, snap)) == nil
}

// handle applies one admission-queue request to the federation and commits
// it to the journal before the verdict is released.
func (s *Service) handle(r request) {
	if err := s.journal.failure(); err != nil {
		r.reply <- verdict{err: fmt.Errorf("service: journal failed: %w", err)}
		return
	}
	switch r.kind {
	case submitReq:
		if r.key != "" {
			if id, ok := s.keys[r.key]; ok {
				s.deduped.Add(1)
				s.journal.release(r.reply, verdict{id: id, deduped: true})
				return
			}
		}
		if err := s.fed.SubmitJob(r.job); err != nil {
			s.rejectedInvalid.Add(1)
			r.reply <- verdict{err: err}
			return
		}
		s.accepted.Add(1)
		if r.key != "" {
			s.keys[r.key] = r.job.ID
		}
		// Publish the queue/phase change immediately so status reads
		// see accepted-but-not-yet-admitted jobs.
		s.snap.Store(s.fed.Snapshot())
		member, _ := s.fed.Owner(r.job.ID)
		s.commit(walRecord{Type: recSubmit, Key: r.key, Job: r.job, Member: member}, r.reply, verdict{id: r.job.ID})
	case cancelReq:
		if err := s.fed.CancelJob(r.id); err != nil {
			r.reply <- verdict{err: err}
			return
		}
		s.cancelled.Add(1)
		s.snap.Store(s.fed.Snapshot())
		s.commit(walRecord{Type: recCancel, ID: r.id}, r.reply, verdict{id: r.id})
	}
}

// shutdown finalizes the loop. A clean stop drains the queue, flushes
// deferred group commits, checkpoints, and closes the journal; a Kill
// or journal failure abandons the journal exactly as a crash would.
func (s *Service) shutdown() {
	if s.killed.Load() {
		// Simulated crash: no drain, no sync, no checkpoint. Waiters
		// unblock via the stopped channel with ErrStopped.
		if s.journal != nil {
			s.journal.w.Abort()
		}
		s.finalErr = ErrKilled
		return
	}
	for {
		select {
		case r := <-s.reqs:
			r.reply <- verdict{err: ErrStopped}
			continue
		default:
		}
		break
	}
	// Deferred group commits are acked only if this sync succeeds; a
	// failed sync fails the journal and hands them the error.
	s.journal.flushGroup(true)
	if err := s.journal.failure(); err != nil {
		s.journal.w.Abort()
		s.finalErr = fmt.Errorf("service: journal failed: %w", err)
		return
	}
	if s.journal != nil {
		// Checkpoint before Finish: Finish finalizes the report for
		// consumption and the federation must be persisted resumable.
		s.journal.checkpoint(s.keys)
	}
	// Finish returns the federation's sticky error, if any, so a crashed
	// loop and a clean shutdown take the same path.
	s.finalReport, s.finalErr = s.fed.Finish()
	s.snap.Store(s.fed.Snapshot())
	if s.journal != nil {
		if err := s.journal.w.Close(); err != nil && s.finalErr == nil {
			s.finalErr = fmt.Errorf("service: close journal: %w", err)
		}
	}
}
