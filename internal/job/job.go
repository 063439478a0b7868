// Package job models a distributed deep-learning training job as
// formulated in the Hadar paper (Table I): a gang of W_j workers that
// must run E_j epochs of N_j iterations each, with per-accelerator-type
// throughput X_j^r (training iterations per second per worker).
package job

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/gpu"
)

// Job is an immutable description of a training job. Mutable scheduling
// state (remaining work, current allocation) lives in the scheduler
// layer, not here.
type Job struct {
	// ID uniquely identifies the job within a trace.
	ID int
	// Name is a human-readable label, e.g. "resnet50-17".
	Name string
	// Model is the workload catalog entry this job trains (Table II),
	// e.g. "ResNet-50". It selects the checkpoint cost model.
	Model string
	// Workers is W_j, the gang size: the job runs with exactly this many
	// accelerators or not at all (constraint 1e).
	Workers int
	// Epochs is E_j, the requested number of training epochs.
	Epochs int
	// ItersPerEpoch is N_j, the number of data chunks (iterations)
	// processed per epoch.
	ItersPerEpoch int
	// Arrival is a_j, the submission time in seconds from trace start.
	Arrival float64
	// Throughput holds X_j^r per accelerator type r, the iterations per
	// second one worker achieves on that type. Types at 0 cannot run this
	// job.
	Throughput Rates
}

// TotalIters returns E_j * N_j, the iterations required to finish.
func (j *Job) TotalIters() float64 {
	return float64(j.Epochs) * float64(j.ItersPerEpoch)
}

// Speed returns X_j^r for the given type, or 0 if the job cannot use it
// or t names no defined type.
func (j *Job) Speed(t gpu.Type) float64 {
	if !t.Valid() {
		return 0
	}
	return j.Throughput[t]
}

// BestType returns the accelerator type with the highest throughput for
// this job and that throughput. It returns ok=false if the job has no
// usable type.
func (j *Job) BestType() (best gpu.Type, speed float64, ok bool) {
	speed = 0
	for t, x := range &j.Throughput {
		if x > speed {
			best, speed, ok = gpu.Type(t), x, true
		}
	}
	return best, speed, ok
}

// WorstType returns the lowest positive throughput among the job's
// usable types and the corresponding type. ok=false if none.
func (j *Job) WorstType() (worst gpu.Type, speed float64, ok bool) {
	speed = math.Inf(1)
	for t, x := range &j.Throughput {
		if x > 0 && x < speed {
			worst, speed, ok = gpu.Type(t), x, true
		}
	}
	if !ok {
		speed = 0
	}
	return worst, speed, ok
}

// MinDuration returns t_j^min (Eq. 8): the shortest possible runtime,
// achieved with all W_j workers on the fastest type. It returns +Inf for
// a job with no usable type.
func (j *Job) MinDuration() float64 {
	_, x, ok := j.BestType()
	if !ok || j.Workers == 0 {
		return math.Inf(1)
	}
	return j.TotalIters() / (float64(j.Workers) * x)
}

// MaxDuration returns t_j^max (Eq. 8): the runtime with all workers on
// the slowest usable type. It returns +Inf for a job with no usable
// type.
func (j *Job) MaxDuration() float64 {
	_, x, ok := j.WorstType()
	if !ok || j.Workers == 0 {
		return math.Inf(1)
	}
	return j.TotalIters() / (float64(j.Workers) * x)
}

// GPUHours returns the job's nominal resource demand in GPU-hours when
// run on its fastest type, the quantity the paper's trace buckets
// (Small/Medium/Large/XLarge) are defined over.
func (j *Job) GPUHours() float64 {
	d := j.MinDuration()
	if math.IsInf(d, 1) {
		return math.Inf(1)
	}
	return d * float64(j.Workers) / 3600
}

// Validate checks the job is well-formed: positive gang size and work,
// non-negative arrival, and at least one usable accelerator type.
func (j *Job) Validate() error {
	if j.Workers <= 0 {
		return fmt.Errorf("job %d: non-positive worker count %d", j.ID, j.Workers)
	}
	if j.Epochs <= 0 || j.ItersPerEpoch <= 0 {
		return fmt.Errorf("job %d: non-positive work %d epochs x %d iters", j.ID, j.Epochs, j.ItersPerEpoch)
	}
	if j.Arrival < 0 || math.IsNaN(j.Arrival) {
		return fmt.Errorf("job %d: invalid arrival %v", j.ID, j.Arrival)
	}
	usable := false
	for t, x := range &j.Throughput {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("job %d: invalid throughput %v on %v", j.ID, x, gpu.Type(t))
		}
		if x > 0 {
			usable = true
		}
	}
	if !usable {
		return fmt.Errorf("job %d: no usable accelerator type", j.ID)
	}
	return nil
}

// String renders a compact description for logs.
func (j *Job) String() string {
	return fmt.Sprintf("job %d (%s, W=%d, %d x %d iters, arr=%.0fs)",
		j.ID, j.Model, j.Workers, j.Epochs, j.ItersPerEpoch, j.Arrival)
}

// AppendJSON appends to b the JSON encoding/json writes for the job:
// every field under its Go name, in declaration order, Throughput as
// Rates encodes it, strings HTML-escaped. Journals encode each accepted
// job this way into a buffer they reuse.
func (j *Job) AppendJSON(b []byte) ([]byte, error) {
	if math.IsNaN(j.Arrival) || math.IsInf(j.Arrival, 0) {
		return b, fmt.Errorf("job %d: unsupported arrival %v", j.ID, j.Arrival)
	}
	b = strconv.AppendInt(append(b, `{"ID":`...), int64(j.ID), 10)
	b = AppendJSONString(append(b, `,"Name":`...), j.Name)
	b = AppendJSONString(append(b, `,"Model":`...), j.Model)
	b = strconv.AppendInt(append(b, `,"Workers":`...), int64(j.Workers), 10)
	b = strconv.AppendInt(append(b, `,"Epochs":`...), int64(j.Epochs), 10)
	b = strconv.AppendInt(append(b, `,"ItersPerEpoch":`...), int64(j.ItersPerEpoch), 10)
	b = AppendJSONFloat(append(b, `,"Arrival":`...), j.Arrival)
	b, err := j.Throughput.AppendJSON(append(b, `,"Throughput":`...))
	return append(b, '}'), err
}

// AppendJSONString appends s as encoding/json writes a string: copied
// between quotes when it needs no escape, marshalled otherwise.
func AppendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || strings.IndexByte(`"\<>&`, c) >= 0 {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
