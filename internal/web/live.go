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
// service's bounded admission queue. Several members answer as a
// federation (member names, merged snapshot); a single cluster answers
// as the engine it is.
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

// handleSnapshot answers with the published view — the federation's, or
// a single cluster's one engine's — plus the admission counters.
func (a liveAPI) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	fed, stats := a.svc.Snapshot(), a.svc.Stats()
	if len(fed.Members) == 1 {
		writeJSON(w, http.StatusOK, struct {
			*sim.Snapshot
			Stats service.Stats `json:"stats"`
		}{fed.Members[0].Snap, stats})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		*federation.FedSnapshot
		Stats service.Stats `json:"stats"`
	}{fed, stats})
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
	body := map[string]any{"name": j.Name}
	if spec.Key != "" {
		var deduped bool
		if id, deduped, err = a.svc.SubmitKeyed(spec.Key, j); deduped {
			// The key was already accepted (possibly before a crash);
			// report the original admission rather than a new one.
			status = http.StatusOK
		}
		body["deduped"] = deduped
	} else {
		err = a.svc.Submit(j)
	}
	if err != nil {
		writeError(w, err, http.StatusConflict)
		return
	}
	body["id"] = id
	// A federation reports which member the router placed the job on:
	// useful for debugging routing policies from the command line.
	if fed := a.svc.Snapshot(); len(fed.Members) > 1 {
		body["member"], _ = fed.Owner(id)
	}
	writeJSON(w, status, body)
}

// queryResponse is the GET /api/jobs/{id} body: the owning member
// (federations only), the lifecycle phase, and whichever detail exists
// — the live JobSnapshot for admitted jobs, the final JobResult for
// finished ones.
type queryResponse struct {
	ID     int                `json:"id"`
	Member string             `json:"member,omitempty"`
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
	fed := a.svc.Snapshot()
	member, phase, js, res, ok := fed.FindJob(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("unknown job %d", id)})
		return
	}
	if len(fed.Members) == 1 {
		member = "" // a single cluster never mentions members
	}
	writeJSON(w, http.StatusOK, queryResponse{ID: id, Member: member, Phase: phase, Job: js, Result: res})
}

func (a liveAPI) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad job id: " + err.Error()})
		return
	}
	if err := a.svc.Cancel(id); err != nil {
		writeError(w, err, http.StatusConflict)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "cancelled": true})
}
