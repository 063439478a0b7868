// Package service runs a sim.Engine — or a federation.Federation of
// them — as a long-lived online scheduler.
//
// The batch simulator answers "what would this trace have cost"; the
// service answers "what is the cluster doing right now". A single
// goroutine owns the backend and is the only code that ever touches it:
// it drains a bounded admission queue, processes one round boundary at
// a time, and publishes an immutable snapshot through an atomic
// pointer after every boundary. Readers (HTTP handlers, dashboards,
// load drivers) only ever see published snapshots, so they never
// contend with the scheduler. That loop is written once (loop);
// Service and FedService are the same loop over the two backends that
// share the engine's step contract.
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
	"repro/internal/metrics"
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
	// Sim configures the underlying engine. Enable Sim.Validate to run
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
	// service can recover its exact state after a crash. The journal
	// covers a single engine; NewFed refuses it.
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

// backend is the step contract *sim.Engine and *federation.Federation
// share: S is the snapshot type the backend publishes, R its final
// report.
type backend[S, R any] interface {
	SubmitJob(j *job.Job) error
	CancelJob(id int) error
	HasPendingEvents() bool
	ProcessNextEvent() error
	Snapshot() *S
	Finish() (R, error)
}

// loop fronts one backend with a goroutine-owned event loop, bounded
// admission, and lock-free snapshot reads. It is the whole of Service
// and FedService but their Provider views; all exported methods are
// safe for concurrent use.
type loop[S, R any] struct {
	opts Options

	be   backend[S, R] // owned by the run goroutine after Start
	reqs chan request

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	stopped   chan struct{}

	snap atomic.Pointer[S]

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
	finalReport R
	finalErr    error
}

// newLoop wires a backend to an inert loop and publishes its initial
// snapshot. Auto-assigned IDs (NextID) start high so they stay clear of
// trace-style sequential IDs chosen by clients.
func newLoop[S, R any](be backend[S, R], opts Options, j *journal, keys map[string]int) *loop[S, R] {
	if keys == nil {
		keys = make(map[string]int)
	}
	l := &loop[S, R]{
		opts:    opts,
		be:      be,
		keys:    keys,
		journal: j,
		reqs:    make(chan request, opts.QueueDepth),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	l.nextID.Store(1 << 20)
	l.snap.Store(be.Snapshot())
	return l
}

// Service fronts one sim.Engine. Create with New, then Start.
type Service struct {
	*loop[sim.Snapshot, *metrics.Report]
	name string
}

// New builds a service over a fresh engine — or, with Options.WAL in
// Recover mode, over the engine reconstructed from the journal and
// checkpoint in WAL.Dir. The service is inert until Start; requests
// submitted before Start wait in the admission queue.
func New(c *cluster.Cluster, s sched.Scheduler, opts Options) (*Service, error) {
	opts.normalize()
	var (
		eng  *sim.Engine
		j    *journal
		keys map[string]int
		err  error
	)
	if opts.WAL != nil {
		if j, keys, err = openJournal(c, s, opts.Sim, *opts.WAL); err == nil {
			eng = j.eng
		}
	} else {
		eng, err = sim.NewEngine(c, s, opts.Sim)
	}
	if err != nil {
		return nil, err
	}
	svc := &Service{loop: newLoop[sim.Snapshot, *metrics.Report](eng, opts, j, keys), name: s.Name()}
	// After recovery, auto-assigned IDs additionally stay clear of every
	// ID already journaled.
	if id, ok := svc.Snapshot().Phases.MaxID(); ok && int64(id) > svc.nextID.Load() {
		svc.nextID.Store(int64(id))
	}
	return svc, nil
}

// Recovery reports what startup recovery did, or nil when the service
// did not recover from a journal.
func (s *Service) Recovery() *Recovery {
	if s.journal == nil {
		return nil
	}
	return s.journal.recovery
}

// Order implements the web dashboard's Provider interface: a live
// service exposes exactly one scheduler.
func (s *Service) Order() []string { return []string{s.name} }

// Report implements the Provider interface against the latest
// snapshot's report view.
func (s *Service) Report(name string) (*metrics.Report, bool) {
	if name != s.name {
		return nil, false
	}
	return s.Snapshot().Report, true
}

// FedService fronts a federation.Federation: the router picks the
// owning member at the front door, and readers get immutable
// FedSnapshots. Create with NewFed, then Start.
type FedService struct {
	*loop[federation.FedSnapshot, *federation.Report]
}

// NewFed builds a service over a fresh federation, which it owns from
// here on. There is no journal for a federation yet (walRecord has no
// member index and the checkpoint no per-member section), so
// Options.WAL is an error rather than silently ignored.
func NewFed(fed *federation.Federation, opts Options) (*FedService, error) {
	if opts.WAL != nil {
		return nil, errors.New("service: the journal covers a single engine; a federated service cannot take Options.WAL")
	}
	opts.normalize()
	return &FedService{newLoop[federation.FedSnapshot, *federation.Report](fed, opts, nil, nil)}, nil
}

// Order implements the web dashboard's Provider interface: one entry
// per member, in member order.
func (s *FedService) Order() []string {
	snap := s.Snapshot()
	names := make([]string, 0, len(snap.Members))
	for i := range snap.Members {
		names = append(names, snap.Members[i].Name)
	}
	return names
}

// Report implements the Provider interface: the named member's
// in-progress report from the latest snapshot.
func (s *FedService) Report(name string) (*metrics.Report, bool) {
	m := s.Snapshot().Member(name)
	if m == nil {
		return nil, false
	}
	return m.Report, true
}

// Kill simulates a crash: the loop exits without draining the
// admission queue, flushing the journal, or writing a final
// checkpoint, exactly as if the process had died. Stop afterwards
// returns ErrKilled. The journal is left as a real crash would leave
// it, so a new service can Recover from it.
func (l *loop[S, R]) Kill() {
	l.killed.Store(true)
	l.Start() // an unstarted service can still be killed
	l.stopOnce.Do(func() { close(l.stop) })
}

// Start launches the run goroutine. Safe to call once; later calls
// are no-ops.
func (l *loop[S, R]) Start() {
	l.startOnce.Do(func() { go l.run() })
}

// Stop shuts the loop down, drains the admission queue with ErrStopped
// replies, finalizes the backend, and returns its report. Safe to call
// multiple times and after a backend failure; every call returns the
// same result.
func (l *loop[S, R]) Stop() (R, error) {
	l.Start() // a never-started service still terminates cleanly
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.stopped
	return l.finalReport, l.finalErr
}

// Submit asks the backend to admit the job at the next round boundary
// (a federation routes it to its owning member first). It fails fast
// with *BusyError when the admission queue is full and with ErrStopped
// after shutdown; any other error is the backend's validation verdict
// (bad job, impossible placement, duplicate ID). With a journal enabled
// the verdict is durable before it returns.
func (l *loop[S, R]) Submit(j *job.Job) error {
	return l.send(request{kind: submitReq, job: j, reply: make(chan verdict, 1)}).err
}

// SubmitKeyed is Submit with an idempotency key: resubmitting the same
// key — after a timeout, a crash, or a retried HTTP request — returns
// the originally accepted job's ID with deduped true instead of
// admitting a duplicate. With a journal the key ledger is journaled
// and survives recovery.
func (l *loop[S, R]) SubmitKeyed(key string, j *job.Job) (id int, deduped bool, err error) {
	v := l.send(request{kind: submitReq, job: j, key: key, reply: make(chan verdict, 1)})
	return v.id, v.deduped, v.err
}

// Cancel withdraws a submitted job (pending or running) at the next
// boundary. Backpressure and shutdown behave exactly as in Submit.
func (l *loop[S, R]) Cancel(id int) error {
	return l.send(request{kind: cancelReq, id: id, reply: make(chan verdict, 1)}).err
}

func (l *loop[S, R]) send(r request) verdict {
	select {
	case <-l.stopped:
		return verdict{err: ErrStopped}
	default:
	}
	select {
	case l.reqs <- r:
	default:
		l.rejectedBusy.Add(1)
		return verdict{err: &BusyError{RetryAfter: l.opts.RetryAfter}}
	}
	var deadline <-chan time.Time
	if l.opts.RequestTimeout > 0 {
		t := time.NewTimer(l.opts.RequestTimeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case v := <-r.reply:
		return v
	case <-l.stopped:
		// The loop drains the queue before closing stopped, so a reply
		// may already be waiting; prefer it over the shutdown signal.
		select {
		case v := <-r.reply:
			return v
		default:
			return verdict{err: ErrStopped}
		}
	case <-deadline:
		return verdict{err: &DeadError{Waited: l.opts.RequestTimeout}}
	}
}

// NextID returns a fresh job ID from the service's own range, for
// clients that do not pick their own.
func (l *loop[S, R]) NextID() int { return int(l.nextID.Add(1)) }

// Snapshot returns the most recently published immutable view. It
// never blocks and never observes a half-updated backend.
func (l *loop[S, R]) Snapshot() *S { return l.snap.Load() }

// Stats returns the cumulative admission-control counters.
func (l *loop[S, R]) Stats() Stats {
	return Stats{
		Accepted:        l.accepted.Load(),
		RejectedBusy:    l.rejectedBusy.Load(),
		RejectedInvalid: l.rejectedInvalid.Load(),
		Cancelled:       l.cancelled.Load(),
		Deduped:         l.deduped.Load(),
		Rounds:          l.rounds.Load(),
	}
}

// run is the owning goroutine: the sole user of l.be from Start to
// stopped.
func (l *loop[S, R]) run() {
	defer close(l.stopped)
	switch l.opts.Clock {
	case WallClock:
		l.runWall()
	default:
		l.runVirtual()
	}
	l.shutdown()
}

// runVirtual drains requests and processes boundaries as fast as
// possible, blocking only when the backend is idle and the queue empty.
func (l *loop[S, R]) runVirtual() {
	for {
		// Batch every waiting request into this boundary.
		for {
			select {
			case r := <-l.reqs:
				l.handle(r)
				continue
			case <-l.stop:
				return
			default:
			}
			break
		}
		if l.journal.failure() != nil {
			return
		}
		l.journal.flushGroup(false)
		if !l.be.HasPendingEvents() {
			// Idle: nothing to schedule until a request, a pending
			// group commit, or stop.
			select {
			case r := <-l.reqs:
				l.handle(r)
			case <-l.journal.groupTimer():
				l.journal.flushGroup(true)
			case <-l.stop:
				return
			}
			continue
		}
		if !l.processBoundary() {
			return
		}
		l.journal.maybeCheckpoint(l.keys)
	}
}

// runWall paces one boundary per RoundInterval tick, handling requests
// between ticks.
func (l *loop[S, R]) runWall() {
	tick := time.NewTicker(l.opts.RoundInterval)
	defer tick.Stop()
	for {
		if l.journal.failure() != nil {
			return
		}
		select {
		case r := <-l.reqs:
			l.handle(r)
		case <-l.journal.groupTimer():
			l.journal.flushGroup(true)
		case <-tick.C:
			if l.be.HasPendingEvents() && !l.processBoundary() {
				return
			}
			l.journal.maybeCheckpoint(l.keys)
		case <-l.stop:
			return
		}
	}
}

// processBoundary advances the backend one boundary, journals it, and
// publishes a fresh snapshot; false means the backend or journal hit a
// sticky error and the loop must exit.
func (l *loop[S, R]) processBoundary() bool {
	if err := l.be.ProcessNextEvent(); err != nil {
		return false
	}
	l.rounds.Add(1)
	l.snap.Store(l.be.Snapshot())
	return l.journal == nil || l.journal.appendRound() == nil
}

// handle applies one admission-queue request to the backend and commits
// it to the journal before the verdict is released.
func (l *loop[S, R]) handle(r request) {
	if err := l.journal.failure(); err != nil {
		r.reply <- verdict{err: fmt.Errorf("service: journal failed: %w", err)}
		return
	}
	switch r.kind {
	case submitReq:
		if r.key != "" {
			if id, ok := l.keys[r.key]; ok {
				l.deduped.Add(1)
				r.reply <- verdict{id: id, deduped: true}
				return
			}
		}
		if err := l.be.SubmitJob(r.job); err != nil {
			l.rejectedInvalid.Add(1)
			r.reply <- verdict{err: err}
			return
		}
		l.accepted.Add(1)
		if r.key != "" {
			l.keys[r.key] = r.job.ID
		}
		// Publish the queue/phase change immediately so status reads
		// see accepted-but-not-yet-admitted jobs.
		l.snap.Store(l.be.Snapshot())
		l.commit(walRecord{Type: recSubmit, Key: r.key, Job: r.job}, r.reply, verdict{id: r.job.ID})
	case cancelReq:
		if err := l.be.CancelJob(r.id); err != nil {
			r.reply <- verdict{err: err}
			return
		}
		l.cancelled.Add(1)
		l.snap.Store(l.be.Snapshot())
		l.commit(walRecord{Type: recCancel, ID: r.id}, r.reply, verdict{id: r.id})
	}
}

// shutdown finalizes the loop. A clean stop drains the queue, flushes
// deferred group commits, checkpoints, and closes the journal; a Kill
// or journal failure abandons the journal exactly as a crash would.
func (l *loop[S, R]) shutdown() {
	if l.killed.Load() {
		// Simulated crash: no drain, no sync, no checkpoint. Waiters
		// unblock via the stopped channel with ErrStopped.
		if l.journal != nil {
			l.journal.w.Abort()
		}
		l.finalErr = ErrKilled
		return
	}
	for {
		select {
		case r := <-l.reqs:
			r.reply <- verdict{err: ErrStopped}
			continue
		default:
		}
		break
	}
	if err := l.journal.failure(); err != nil {
		l.journal.flushGroup(true) // delivers the journal error to deferred verdicts
		l.journal.w.Abort()
		l.finalErr = fmt.Errorf("service: journal failed: %w", err)
		return
	}
	l.journal.flushGroup(true)
	if l.journal != nil && l.journal.err == nil {
		// Checkpoint before Finish: Finish finalizes the report for
		// consumption and the engine must be persisted resumable.
		l.journal.writeCheckpoint(l.keys)
	}
	// Finish returns the backend's sticky error, if any, so a crashed
	// loop and a clean shutdown take the same path.
	l.finalReport, l.finalErr = l.be.Finish()
	l.snap.Store(l.be.Snapshot())
	if l.journal != nil {
		if err := l.journal.w.Close(); err != nil && l.finalErr == nil {
			l.finalErr = fmt.Errorf("service: close journal: %w", err)
		}
	}
}
