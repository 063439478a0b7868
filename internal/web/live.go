package web

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// NewLiveServer serves the dashboard plus the live control API for a
// running scheduler service: the pages (/, /jobs, /api/summary, SVGs)
// render the service's latest snapshot, one report per member, and the
// /api/jobs endpoints submit, cancel, and query jobs through the
// service's bounded admission queue. Every service answers as the
// federation it is, a single cluster as a federation of one: the same
// bodies, each naming the member that owns the job.
func NewLiveServer(svc *service.Service) *Server {
	s := newServer(svc)
	api := liveAPI{svc}
	s.mux.HandleFunc("GET /api/snapshot", api.handleSnapshot)
	s.mux.HandleFunc("POST /api/jobs", api.handleSubmit)
	s.mux.HandleFunc("GET /api/jobs/{id}", api.handleQuery)
	s.mux.HandleFunc("DELETE /api/jobs/{id}", api.handleCancel)
	return s
}

// liveAPI is the control API over a service.
type liveAPI struct{ svc *service.Service }

// maxSubmitBody bounds a POST /api/jobs body; a real one is under 200
// bytes.
const maxSubmitBody = 64 << 10

// writeJSON emits one JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing useful left to do.
		_ = err
	}
}

// writeError maps a service error to an HTTP status: backpressure
// becomes 429 with a Retry-After hint, shutdown 503, anything else
// (validation, duplicate ID, unknown job) 400/404/409 per endpoint.
func writeError(w http.ResponseWriter, err error, fallback int) {
	var busy *service.BusyError
	var dead *service.DeadError
	switch {
	case errors.As(err, &busy):
		secs := int(busy.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
	case errors.As(err, &dead):
		// The engine loop missed the verdict deadline: the request may
		// or may not have been applied, so the client should retry with
		// an idempotency key.
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	case errors.Is(err, service.ErrStopped):
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, fallback, map[string]string{"error": err.Error()})
	}
}

// handleSnapshot answers with the published federation view plus the
// admission counters. Its size follows the live jobs: terminal jobs are
// counted, and each one answers at GET /api/jobs/{id}.
func (a liveAPI) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		*federation.FedSnapshot
		Stats service.Stats `json:"stats"`
	}{a.svc.Snapshot(), a.svc.Stats()})
}

// submitSpec is the POST /api/jobs body. The job is built from the
// workload catalog: Model selects the Table II entry, GPUHours the
// aggregate demand, Workers the gang size. ID is optional; omitted IDs
// are assigned from the service's range. Key is an optional
// idempotency key: retrying a submission with the same key — after a
// timeout, a 5xx, or a scheduler restart — returns the original job's
// ID instead of admitting a duplicate.
type submitSpec struct {
	ID       *int    `json:"id"`
	Key      string  `json:"key"`
	Model    string  `json:"model"`
	Workers  int     `json:"workers"`
	GPUHours float64 `json:"gpu_hours"`
}

func (a liveAPI) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec submitSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody)).Decode(&spec); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	model, ok := trace.ModelByName(spec.Model)
	if !ok {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("unknown model %q (see the workload catalog)", spec.Model)})
		return
	}
	id := a.svc.NextID()
	if spec.ID != nil {
		id = *spec.ID
	}
	// Arrival 0 is in the engine's past; it clamps to the current
	// simulated time, i.e. "arrives now".
	j, err := trace.FromDemand(id, model, spec.Workers, spec.GPUHours, 0)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	status := http.StatusAccepted
	body := map[string]any{}
	deduped := false
	if spec.Key != "" {
		id, deduped, err = a.svc.SubmitKeyed(spec.Key, j)
		body["deduped"] = deduped
	} else {
		err = a.svc.Submit(j)
	}
	if err != nil {
		writeError(w, err, http.StatusConflict)
		return
	}
	if deduped {
		// The key was already accepted (possibly before a crash): report
		// the original admission, whose name this spec does not know.
		status = http.StatusOK
	} else {
		body["name"] = j.Name
	}
	body["id"] = id
	body["member"], _ = a.svc.Snapshot().Owner(id)
	writeJSON(w, status, body)
}

// queryResponse is the GET /api/jobs/{id} body: the owning member, the
// lifecycle phase, and whichever detail exists — the live JobSnapshot
// for admitted jobs, the final JobResult for finished ones.
type queryResponse struct {
	ID     int                `json:"id"`
	Member string             `json:"member"`
	Phase  string             `json:"phase"`
	Job    *sim.JobSnapshot   `json:"job,omitempty"`
	Result *metrics.JobResult `json:"result,omitempty"`
}

func jobID(r *http.Request) (int, error) {
	return strconv.Atoi(r.PathValue("id"))
}

func (a liveAPI) handleQuery(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad job id: " + err.Error()})
		return
	}
	member, phase, js, res, ok := a.svc.Snapshot().FindJob(id)
	if !ok {
		writeUnknownJob(w, id)
		return
	}
	writeJSON(w, http.StatusOK, queryResponse{ID: id, Member: member, Phase: phase, Job: js, Result: res})
}

func (a liveAPI) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad job id: " + err.Error()})
		return
	}
	// A job the service never accepted is unknown, as GET answers; one it
	// knows but cannot cancel (already terminal) is a conflict.
	if member, _ := a.svc.Snapshot().Owner(id); member == "" {
		writeUnknownJob(w, id)
		return
	}
	if err := a.svc.Cancel(id); err != nil {
		writeError(w, err, http.StatusConflict)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "cancelled": true})
}

func writeUnknownJob(w http.ResponseWriter, id int) {
	writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("unknown job %d", id)})
}
