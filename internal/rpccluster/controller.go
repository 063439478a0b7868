package rpccluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/ckptstore"
	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/psmodel"
	"repro/internal/sched"
)

// NodeSpec describes one worker agent the controller drives.
type NodeSpec struct {
	Addr string
	// GPU is the accelerator type of the node's devices (prototype
	// machines are homogeneous per node, as on the paper's AWS fleet).
	GPU gpu.Type
	// Devices is the node's accelerator count.
	Devices int
	// Speed is the straggler factor (1.0 nominal).
	Speed float64
}

// Options configures the controller.
type Options struct {
	// RoundLength is the scheduling interval in simulated seconds.
	RoundLength float64
	// TimeScale is simulated seconds per wall-clock second. Workers must
	// be created with the same value.
	TimeScale float64
	// UseModelCosts selects Table IV checkpoint costs; otherwise the
	// flat 10 s delay applies to every (re)allocation.
	UseModelCosts bool
	// Store, when non-nil, persists checkpoints through a
	// bandwidth-modeled storage device: restart delays then come from
	// actual blob sizes (the model's parameter bytes) and device
	// queueing instead of the fixed cost table.
	Store *ckptstore.Store
	// MaxRounds bounds the run.
	MaxRounds int

	// CallTimeout is the per-call RPC deadline in wall-clock time;
	// 0 selects 2 s.
	CallTimeout time.Duration
	// Retry bounds transient-failure retries per call; the zero value
	// selects DefaultRetryPolicy.
	Retry RetryPolicy
	// ProbeThreshold is how many consecutive failed heartbeat probes
	// mark a worker down; 0 selects 2.
	ProbeThreshold int
	// FaultSeed seeds the retry-jitter RNG; 0 selects 1.
	FaultSeed int64
	// Transport overrides the TCP transport — fault-injection tests
	// wrap NewDialTransport in a Chaos transport here. When nil the
	// controller dials the node addresses itself.
	Transport Transport
}

// DefaultOptions replays at 3600x: a 6-minute round every 100 ms.
func DefaultOptions() Options {
	return Options{
		RoundLength: checkpoint.RoundSeconds,
		TimeScale:   3600,
		MaxRounds:   100000,
	}
}

// Controller drives a set of live worker agents with a scheduling
// policy, mirroring the paper's prototype scheduler process. Unlike
// the paper's fail-fast prototype, the controller tolerates worker
// failures: calls carry deadlines and bounded retries, a per-round
// heartbeat marks unresponsive workers down (hiding them from the
// scheduler with the same outage mark the simulator puts on the lent
// free state), and jobs stranded on a dead worker are rolled back to
// their last checkpoint and requeued instead of aborting the run.
type Controller struct {
	opts      Options
	retry     RetryPolicy
	nodes     []NodeSpec
	transport Transport
	// free is the free-capacity state lent to the scheduler each round:
	// fully free (the controller books devices on the workers, not
	// here) except for the nodes the health tracker has down.
	free   *cluster.State
	sched  sched.Scheduler
	health *health
	rng    *rand.Rand

	// leads maps job ID -> node tracking the job's global progress.
	leads map[int]int
	// lastCkpt maps job ID -> iteration of its last durable checkpoint;
	// recovery rolls Remaining back to this, never to polled progress.
	lastCkpt map[int]float64
	faults   *metrics.FaultStats
}

// NewController connects to every worker agent. The cluster model used
// for scheduling decisions is derived from the node specs.
func NewController(s sched.Scheduler, nodes []NodeSpec, opts Options) (*Controller, error) {
	if opts.RoundLength <= 0 || opts.TimeScale <= 0 {
		return nil, fmt.Errorf("rpccluster: invalid options %+v", opts)
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = DefaultOptions().MaxRounds
	}
	if opts.CallTimeout <= 0 {
		opts.CallTimeout = 2 * time.Second
	}
	if opts.FaultSeed == 0 {
		opts.FaultSeed = 1
	}
	fleets := make([]gpu.Fleet, len(nodes))
	for i, n := range nodes {
		if n.Devices <= 0 {
			return nil, fmt.Errorf("rpccluster: node %d has no devices", i)
		}
		fleets[i] = gpu.Fleet{n.GPU: n.Devices}
	}
	clus := cluster.New(fleets...)
	for i, n := range nodes {
		if n.Speed > 0 {
			clus.SetSpeed(i, n.Speed)
		}
	}
	c := &Controller{
		opts:     opts,
		retry:    opts.Retry.normalize(),
		nodes:    nodes,
		free:     cluster.NewState(clus),
		sched:    s,
		health:   newHealth(len(nodes), opts.ProbeThreshold),
		rng:      rand.New(rand.NewSource(opts.FaultSeed)),
		leads:    map[int]int{},
		lastCkpt: map[int]float64{},
		faults:   &metrics.FaultStats{},
	}
	if opts.Transport != nil {
		c.transport = opts.Transport
	} else {
		addrs := make([]string, len(nodes))
		for i, n := range nodes {
			addrs[i] = n.Addr
		}
		tr, err := NewDialTransport(addrs, opts.CallTimeout)
		if err != nil {
			return nil, err
		}
		c.transport = tr
	}
	return c, nil
}

// Close disconnects from the workers. It is idempotent.
func (c *Controller) Close() {
	c.transport.Close()
}

// callOnce makes a single attempt with the per-call deadline. A call
// abandoned at the deadline may still complete on the worker; it
// decodes into a private reply, so a late arrival can never race the
// caller's retry.
func (c *Controller) callOnce(node int, method string, args, reply interface{}) error {
	priv := reflect.New(reflect.TypeOf(reply).Elem())
	ch := make(chan error, 1)
	//lint:ignore gostop single bounded RPC attempt; the buffered channel lets it finish and exit even after the deadline abandons it
	go func() { ch <- c.transport.Call(node, method, args, priv.Interface()) }()
	timer := time.NewTimer(c.opts.CallTimeout)
	defer timer.Stop()
	select {
	case err := <-ch:
		if err == nil {
			reflect.ValueOf(reply).Elem().Set(priv.Elem())
		}
		return err
	case <-timer.C:
		c.faults.RPCTimeouts++
		return &timeoutError{node: node, method: method, limit: c.opts.CallTimeout}
	}
}

// call invokes a worker method with deadline, bounded retries on
// transient failures, and exponential backoff with seeded jitter.
// Application-level errors from the worker return immediately.
func (c *Controller) call(node int, method string, args, reply interface{}) error {
	var err error
	for attempt := 1; ; attempt++ {
		err = c.callOnce(node, method, args, reply)
		if err == nil || !Transient(err) || attempt >= c.retry.MaxAttempts {
			return err
		}
		c.faults.RPCRetries++
		time.Sleep(c.retry.backoff(attempt, c.rng.Float64()))
	}
}

// isUnknownJob matches the worker's "does not host job" protocol
// reply: the worker is alive but no longer has the task — either it
// restarted and lost state, or a retried preempt's first attempt
// already executed. Both are recoverable, not fatal.
func isUnknownJob(err error) bool {
	return err != nil && strings.Contains(err.Error(), "does not host job")
}

// noteFailure records a failed call against a node's health and
// updates the outage counter on a down transition.
func (c *Controller) noteFailure(node int) {
	if c.health.fail(node) {
		c.faults.NodeDown++
	}
}

// Run schedules the jobs on the live workers until all complete,
// returning the same metrics report the simulator produces. Job arrival
// times are interpreted in simulated seconds from the start of the run.
func (c *Controller) Run(jobs []*job.Job) (rep *metrics.Report, retErr error) {
	states := make([]*sched.JobState, len(jobs))
	order := append([]*job.Job(nil), jobs...)
	sort.Slice(order, func(a, b int) bool {
		if order[a].Arrival < order[b].Arrival {
			return true
		}
		if order[a].Arrival > order[b].Arrival {
			return false
		}
		return order[a].ID < order[b].ID
	})
	for i, j := range order {
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("rpccluster: %w", err)
		}
		states[i] = &sched.JobState{
			Job: j, Remaining: j.TotalIters(),
		}
	}
	report := &metrics.Report{Scheduler: c.sched.Name() + "+rpc", TotalGPUs: c.free.Cluster().TotalGPUs()}
	c.faults = &report.Faults
	c.leads = map[int]int{}
	c.lastCkpt = map[int]float64{}
	start := time.Now()
	simNow := func() float64 { return time.Since(start).Seconds() * c.opts.TimeScale }

	// A mid-run error must not strand tasks on workers or leak client
	// connections: best-effort preempt everything still placed, then
	// close the transport.
	defer func() {
		if retErr != nil {
			c.stopAll(states)
			c.Close()
		}
	}()

	next := 0
	var active []*sched.JobState
	for round := 0; round < c.opts.MaxRounds; round++ {
		roundStart := simNow()
		for next < len(states) && states[next].Job.Arrival <= roundStart {
			active = append(active, states[next])
			next++
		}

		// Heartbeat probes: down/up transitions, reconnects, and state
		// reconciliation with workers that restarted.
		c.probeAll(active)
		// Any job with a task on a down node is preempted in absentia:
		// progress rolls back to its last checkpoint (iterations since
		// then are lost, and accounted), and the job requeues for this
		// round's scheduling decision.
		for _, st := range active {
			for _, p := range st.Alloc {
				if c.health.isDown(p.Node) {
					c.recoverJob(st)
					break
				}
			}
		}

		// Poll progress and collect completions.
		var still []*sched.JobState
		for _, st := range active {
			lead, running := c.leads[st.Job.ID]
			if !running {
				still = append(still, st)
				continue
			}
			var prog ProgressReply
			if err := c.call(lead, "Progress", ProgressArgs{JobID: st.Job.ID}, &prog); err != nil {
				switch {
				case Transient(err):
					// Channel trouble only: the task keeps running on
					// the worker, so keep the job as-is. Health decides
					// whether the node is down; the sweep above
					// reclaims the job next round if so.
					c.noteFailure(lead)
					still = append(still, st)
					continue
				case isUnknownJob(err):
					// Worker is alive but lost the task (restart
					// between probes): recover from the checkpoint.
					c.recoverJob(st)
					still = append(still, st)
					continue
				default:
					return nil, fmt.Errorf("rpccluster: progress job %d: %w", st.Job.ID, err)
				}
			}
			st.Remaining = st.Job.TotalIters() - prog.Iter
			if prog.Done {
				// Busy time approximated from the job's aggregate work at
				// its best rate (exact per-round rates live on workers).
				if _, best, ok := st.Job.BestType(); ok && best > 0 {
					report.BusyGPUSeconds += st.Job.TotalIters() / best
				}
				// Forget the lead first: the job's completion is already
				// confirmed, so a flaky preempt below must release
				// devices best-effort, not roll the job back.
				delete(c.leads, st.Job.ID)
				if err := c.releaseJob(st, prog.FinishSimTime); err != nil {
					return nil, err
				}
				if c.opts.Store != nil {
					c.opts.Store.Delete(st.Job.ID)
				}
				delete(c.lastCkpt, st.Job.ID)
				st.Alloc = nil
				report.Jobs = append(report.Jobs, c.result(st, prog.FinishSimTime, len(jobs)))
				if prog.FinishSimTime > report.Makespan {
					report.Makespan = prog.FinishSimTime
				}
				continue
			}
			still = append(still, st)
		}
		active = still
		if len(active) == 0 && next >= len(states) {
			break
		}

		// Scheduling decision on live state. Down nodes are marked on
		// the lent state, the same outage semantics the simulator uses
		// for injected outages.
		for n := range c.nodes {
			if err := c.free.SetDown(n, c.health.isDown(n)); err != nil {
				return nil, fmt.Errorf("rpccluster: %w", err)
			}
		}
		ctx := &sched.Context{
			Now: roundStart, Round: round, RoundLength: c.opts.RoundLength,
			Horizon: roundStart + horizonEstimate(active),
			Free:    c.free, Jobs: append([]*sched.JobState(nil), active...),
		}
		t0 := time.Now()
		decisions := c.sched.Schedule(ctx)
		report.DecisionTime += time.Since(t0)
		report.Decisions++
		report.Rounds++

		// Apply in two phases so a job's new placement never races the
		// devices another job is about to release: first preempt every
		// changed job, then launch the new placements.
		type change struct {
			st         *sched.JobState
			wasRunning bool
		}
		var changes []change
		for _, st := range active {
			newAlloc := decisions[st.Job.ID].Canonical()
			if newAlloc.Equal(st.Alloc) {
				if w := newAlloc.Workers(); w > 0 {
					report.JobRoundAllocs++
					report.HeldGPUSeconds += float64(w) * c.opts.RoundLength
				}
				continue
			}
			if err := sched.Validate(st.Job, newAlloc); err != nil {
				return nil, fmt.Errorf("rpccluster: %w", err)
			}
			for _, p := range newAlloc {
				if c.health.isDown(p.Node) {
					return nil, fmt.Errorf("rpccluster: %s allocated job %d to down node %d",
						c.sched.Name(), st.Job.ID, p.Node)
				}
			}
			wasRunning := st.Alloc.Workers() > 0
			if wasRunning {
				if err := c.releaseJob(st, roundStart); err != nil {
					return nil, err
				}
				delete(c.leads, st.Job.ID)
			}
			st.Alloc = newAlloc
			changes = append(changes, change{st: st, wasRunning: wasRunning})
		}
		for _, ch := range changes {
			st := ch.st
			w := st.Alloc.Workers()
			if w == 0 {
				continue
			}
			if err := c.launchJob(st, roundStart); err != nil {
				// A node died between the decision and the launch: the
				// partial gang was rolled back inside launchJob. The
				// job requeues for the next round from its checkpoint.
				st.Alloc = nil
				c.faults.Recoveries++
				continue
			}
			if ch.wasRunning {
				report.JobRoundReallocs++
				st.Reallocations++
			}
			if !st.Started {
				st.Started = true
				st.StartTime = roundStart
			}
			report.JobRoundAllocs++
			report.HeldGPUSeconds += float64(w) * c.opts.RoundLength
			st.Rounds++
			for _, typ := range st.Alloc.Types() {
				st.RoundsByType[typ]++
			}
		}

		// Sleep until the next round boundary on the scaled clock.
		roundReal := time.Duration(c.opts.RoundLength / c.opts.TimeScale * float64(time.Second))
		target := time.Duration(round+1) * roundReal
		if rem := target - time.Since(start); rem > 0 {
			time.Sleep(rem)
		}
	}
	if len(active) > 0 || next < len(states) {
		return nil, fmt.Errorf("rpccluster: %d jobs unfinished after %d rounds", len(active)+len(states)-next, c.opts.MaxRounds)
	}
	// A preempt dropped during the final rounds can leave a finished
	// job's task holding devices on a worker; sweep so nothing outlives
	// the run.
	c.sweepZombies()
	report.SortJobsByID()
	return report, nil
}

// sweepZombies frees any task still held by a reachable worker. Called
// after every job has completed, so everything found is a zombie from a
// lost preempt. Best effort: an unreachable worker keeps its zombies.
func (c *Controller) sweepZombies() {
	for node := range c.nodes {
		if c.health.isDown(node) {
			continue
		}
		var status StatusReply
		if err := c.call(node, "Status", StatusArgs{}, &status); err != nil {
			continue
		}
		for _, id := range status.Jobs {
			c.call(node, "Preempt", PreemptArgs{JobID: id}, &PreemptReply{})
		}
	}
}

// probeAll heartbeats every worker once (single attempt — failures are
// the signal; the K-consecutive threshold provides the hysteresis).
// Down workers get a reconnect attempt first, so a restarted worker is
// re-admitted by the same probe that finds it alive again.
func (c *Controller) probeAll(active []*sched.JobState) {
	for node := range c.nodes {
		if c.health.isDown(node) {
			if err := c.transport.Reconnect(node); err != nil {
				continue // still unreachable
			}
		}
		var pr PingReply
		if err := c.callOnce(node, "Ping", PingArgs{}, &pr); err != nil {
			c.noteFailure(node)
			continue
		}
		cameUp, restarted, needSync := c.health.ok(node, pr.Incarnation)
		if cameUp {
			c.faults.NodeUp++
		}
		if restarted {
			// The worker bounced between probes without a visible
			// outage; account the transition pair it implies.
			c.faults.NodeDown++
			c.faults.NodeUp++
		}
		if needSync {
			c.syncNode(node, active)
		}
	}
}

// syncNode reconciles the controller's view with a worker whose state
// may have diverged (re-admitted after an outage, restarted, or an
// earlier call to it failed mid-flight): jobs the controller placed
// there that the worker lost are recovered from their checkpoints, and
// tasks the worker still hosts that the controller no longer tracks
// (zombies from a lost preempt) are freed.
func (c *Controller) syncNode(node int, active []*sched.JobState) {
	var status StatusReply
	if err := c.callOnce(node, "Status", StatusArgs{}, &status); err != nil {
		if Transient(err) {
			c.noteFailure(node)
		}
		return
	}
	onWorker := make(map[int]bool, len(status.Jobs))
	for _, id := range status.Jobs {
		onWorker[id] = true
	}
	tracked := make(map[int]bool)
	for _, st := range active {
		placedHere := false
		for _, p := range st.Alloc.Canonical() {
			if p.Node == node {
				placedHere = true
				break
			}
		}
		if !placedHere {
			continue
		}
		tracked[st.Job.ID] = true
		if !onWorker[st.Job.ID] {
			c.recoverJob(st)
		}
	}
	zombies := make([]int, 0, len(onWorker))
	for id := range onWorker {
		zombies = append(zombies, id)
	}
	sort.Ints(zombies)
	for _, id := range zombies {
		if !tracked[id] {
			// Zombie task: best-effort free its devices.
			c.callOnce(node, "Preempt", PreemptArgs{JobID: id}, &PreemptReply{})
		}
	}
}

// recoverJob preempts a job in absentia after part of its gang was
// lost: surviving placements are freed without keeping their progress
// (a dead gang member invalidates work past the last checkpoint),
// Remaining rolls back to the last durable checkpoint with the lost
// iterations accounted, and the job requeues for the next round.
func (c *Controller) recoverJob(st *sched.JobState) {
	for _, p := range st.Alloc.Canonical() {
		if c.health.isDown(p.Node) {
			continue
		}
		var rep PreemptReply
		if err := c.callOnce(p.Node, "Preempt", PreemptArgs{JobID: st.Job.ID}, &rep); err != nil && Transient(err) {
			c.noteFailure(p.Node)
		}
	}
	delete(c.leads, st.Job.ID)
	st.Alloc = nil
	c.rollbackToCheckpoint(st)
}

// rollbackToCheckpoint restores a job's progress to its last durable
// checkpoint, counting the discarded iterations.
func (c *Controller) rollbackToCheckpoint(st *sched.JobState) {
	ckpt := c.lastCkpt[st.Job.ID]
	if lost := (st.Job.TotalIters() - st.Remaining) - ckpt; lost > 0 {
		c.faults.LostIterations += lost
	}
	st.Remaining = st.Job.TotalIters() - ckpt
	c.faults.Recoveries++
}

// stopAll best-effort preempts every job still holding devices; the
// error-path cleanup of Run.
func (c *Controller) stopAll(states []*sched.JobState) {
	for _, st := range states {
		if st == nil || st.Alloc.Workers() == 0 {
			continue
		}
		for _, p := range st.Alloc.Canonical() {
			if c.health.isDown(p.Node) {
				continue
			}
			c.callOnce(p.Node, "Preempt", PreemptArgs{JobID: st.Job.ID}, &PreemptReply{})
		}
	}
}

// releaseJob preempts a job on every node it occupies and, when a
// checkpoint store is configured, persists the checkpointed progress.
// Placements on down nodes are skipped; a lead that cannot be reached
// means the checkpoint was not captured, so the job rolls back to its
// previous one instead of keeping unverified progress.
func (c *Controller) releaseJob(st *sched.JobState, nowSim float64) error {
	checkpointIter := -1.0
	leadNode, hasLead := c.leads[st.Job.ID]
	leadReached := !hasLead
	for _, p := range st.Alloc.Canonical() {
		if c.health.isDown(p.Node) {
			continue
		}
		var rep PreemptReply
		err := c.call(p.Node, "Preempt", PreemptArgs{JobID: st.Job.ID}, &rep)
		switch {
		case err == nil:
		case Transient(err):
			c.noteFailure(p.Node)
			continue
		case isUnknownJob(err):
			// Already gone worker-side (lost preempt retry, restart).
			continue
		default:
			return fmt.Errorf("rpccluster: preempt job %d on node %d: %w", st.Job.ID, p.Node, err)
		}
		if p.Node == leadNode {
			leadReached = true
		}
		if rep.Done || rep.Iter > 0 {
			// rep.Iter holds completed iterations, so the job's new
			// remaining work is total minus that; progress only ever
			// moves forward (never above the current Remaining).
			if remaining := st.Job.TotalIters() - rep.Iter; remaining < st.Remaining {
				st.Remaining = remaining
			}
			if rep.Iter > checkpointIter {
				checkpointIter = rep.Iter
			}
		}
	}
	if hasLead && !leadReached {
		// The lead (and its checkpoint) is unreachable: everything
		// since the previous durable checkpoint is lost.
		c.rollbackToCheckpoint(st)
		return nil
	}
	if checkpointIter >= 0 {
		c.lastCkpt[st.Job.ID] = checkpointIter
		if c.opts.Store != nil {
			_, err := c.opts.Store.Save(nowSim, ckptstore.Checkpoint{
				JobID: st.Job.ID, Iter: checkpointIter,
				SizeBytes: modelBytes(st.Job.Model),
			})
			if err != nil {
				return fmt.Errorf("rpccluster: %w", err)
			}
		}
	}
	return nil
}

// modelBytes returns the serialized parameter size for checkpoint
// transfers, from the PS training model; unknown models assume 100 MB.
func modelBytes(model string) float64 {
	if m, ok := psmodel.ModelByName(model); ok {
		return m.ParamBytes
	}
	return 100e6
}

// launchJob starts the gang across its placements; the first placement
// is the lead tracking progress. On any placement failure the already
// launched part of the gang is rolled back (best effort) and the error
// returned, leaving the job consistent at its checkpoint.
func (c *Controller) launchJob(st *sched.JobState, nowSim float64) error {
	placements := st.Alloc.Canonical()
	rate := sched.Rate(st.Job, c.free.Cluster(), st.Alloc)
	delay := checkpoint.DefaultDelay
	if c.opts.UseModelCosts {
		delay = checkpoint.Delay(st.Job.Model, true)
	}
	if c.opts.Store != nil {
		// The restore delay is the real read time of the checkpoint blob
		// through the (possibly queued) storage device.
		if _, doneAt, ok := c.opts.Store.Load(nowSim, st.Job.ID); ok {
			delay = doneAt - nowSim
		} else {
			delay = 0 // fresh start: nothing to restore
		}
	}
	startIter := st.Job.TotalIters() - st.Remaining
	for i, p := range placements {
		args := LaunchArgs{
			JobID:           st.Job.ID,
			Lead:            i == 0,
			Devices:         p.Count,
			RateIterPerSec:  rate,
			StartIter:       startIter,
			TargetIters:     st.Job.TotalIters(),
			DelaySimSeconds: delay,
			NowSimSeconds:   nowSim,
		}
		var rep LaunchReply
		if err := c.call(p.Node, "Launch", args, &rep); err != nil {
			if Transient(err) {
				c.noteFailure(p.Node)
			}
			// Roll back the partial gang.
			for _, q := range placements[:i] {
				if c.health.isDown(q.Node) {
					continue
				}
				c.callOnce(q.Node, "Preempt", PreemptArgs{JobID: st.Job.ID}, &PreemptReply{})
			}
			delete(c.leads, st.Job.ID)
			return fmt.Errorf("rpccluster: launch job %d on node %d: %w", st.Job.ID, p.Node, err)
		}
		if i == 0 {
			c.leads[st.Job.ID] = p.Node
		}
	}
	c.lastCkpt[st.Job.ID] = startIter
	return nil
}

func (c *Controller) result(st *sched.JobState, finish float64, n int) metrics.JobResult {
	_, best, _ := st.Job.BestType()
	return metrics.JobResult{
		ID: st.Job.ID, Model: st.Job.Model, Workers: st.Job.Workers,
		Arrival: st.Job.Arrival, Start: st.StartTime, Finish: finish,
		TotalIters: st.Job.TotalIters(),
		IsolatedDuration: metrics.IsolatedDuration(
			st.Job.TotalIters(), st.Job.Workers, best, n, c.free.Cluster().TotalGPUs()),
		Reallocations: st.Reallocations,
	}
}

func horizonEstimate(active []*sched.JobState) float64 {
	h := 3600.0
	for _, st := range active {
		d := st.Job.MaxDuration()
		if d < 1e12 {
			h += d
		}
	}
	return h
}
