// Package loadgen drives a scheduler service in closed loop with a
// workload built elsewhere (trace.Generate).
//
// Drive feeds the jobs to a service as fast as the service admits them,
// honoring backpressure: a *BusyError from the bounded admission queue
// is retried after the suggested delay rather than dropped, so the
// measured sustained rate reflects what the engine actually absorbed.
package loadgen

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/job"
	"repro/internal/service"
)

// maxRetries caps back-to-back busy retries for one job before Drive
// gives up on the run (a stuck service).
const maxRetries = 1000

// Target is the submission surface Drive exercises; *service.Service
// satisfies it.
type Target interface {
	Submit(j *job.Job) error
}

// Result reports what a closed-loop drive sustained.
type Result struct {
	// Submitted counts jobs the service accepted.
	Submitted int `json:"submitted"`
	// BusyRetries counts backpressure rejections that were retried.
	BusyRetries int `json:"busy_retries"`
	// Elapsed is the wall time the drive took.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// PerSecond is the sustained accepted-submission rate over the drive.
func (r Result) PerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Submitted) / r.Elapsed.Seconds()
}

// Drive submits the jobs to the target in order, as fast as the target
// admits them: each *BusyError backoff sleeps the suggested RetryAfter
// and resubmits the same job, so admission control is exercised without
// losing work. Any other error aborts the drive, a verdict timeout
// (*service.DeadError) included: an unkeyed resubmission after it could
// admit the job twice. Drive stops early, without error, once budget
// wall time has passed (0 = no limit).
func Drive(t Target, jobs []*job.Job, budget time.Duration) (res Result, err error) {
	start := time.Now()
	defer func() { res.Elapsed = time.Since(start) }()
	for _, j := range jobs {
		for retries := 1; ; retries++ {
			if budget > 0 && time.Since(start) >= budget {
				return res, nil
			}
			err := t.Submit(j)
			if err == nil {
				res.Submitted++
				break
			}
			if retries > maxRetries {
				return res, fmt.Errorf("loadgen: job %d failed %d times in a row: %w", j.ID, retries, err)
			}
			var busy *service.BusyError
			if !errors.As(err, &busy) {
				return res, fmt.Errorf("loadgen: submit %v: %w", j, err)
			}
			res.BusyRetries++
			time.Sleep(busy.RetryAfter)
		}
	}
	return res, nil
}
