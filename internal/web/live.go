package web

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
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

// jsonContentType is every JSON response's Content-Type value, shared
// so that a response does not allocate its own. net/http only reads it.
var jsonContentType = []string{"application/json"}

// writeJSON emits one JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing useful left to do.
		_ = err
	}
}

// errorBody is every error response: {"error": "..."}.
type errorBody struct {
	Error string `json:"error"`
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
		writeJSON(w, http.StatusTooManyRequests, errorBody{err.Error()})
	case errors.As(err, &dead):
		// The engine loop missed the verdict deadline: the request may
		// or may not have been applied, so the client should retry with
		// an idempotency key.
		writeJSON(w, http.StatusServiceUnavailable, errorBody{err.Error()})
	case errors.Is(err, service.ErrStopped):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{err.Error()})
	default:
		writeJSON(w, fallback, errorBody{err.Error()})
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

// submitVerdict is the POST /api/jobs body of an accepted submission,
// its fields in sorted key order as a map would write them. Deduped
// appears only on keyed posts, Name only when the post admitted a job.
type submitVerdict struct {
	Deduped *bool  `json:"deduped,omitempty"`
	ID      int    `json:"id"`
	Member  string `json:"member"`
	Name    string `json:"name,omitempty"`
}

// dedupedNo and dedupedYes are what a keyed post's Deduped points at.
var dedupedNo, dedupedYes = false, true

// cancelVerdict is the DELETE /api/jobs/{id} body of a cancellation.
type cancelVerdict struct {
	Cancelled bool `json:"cancelled"`
	ID        int  `json:"id"`
}

// bodyPool holds the buffers submit bodies are read into.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeSubmit reads a POST /api/jobs body, at most maxSubmitBody bytes
// of it, into spec. It decodes exactly as json.NewDecoder over the
// capped body would — the first JSON value, whatever follows it — but
// without a Decoder for the common body that is one value and nothing
// else: the body is read into a pooled buffer and handed to
// json.Unmarshal. When the read fails or Unmarshal refuses the bytes,
// a Decoder reads the same bytes followed by the same read error, so
// the outcome and its error text are the Decoder's. The one difference
// is how much is read: an oversized body whose first value ends early
// is now read up to the cap, so net/http closes that connection after
// answering.
func decodeSubmit(w http.ResponseWriter, body io.ReadCloser, spec *submitSpec) error {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	buf.Reset()
	_, rerr := buf.ReadFrom(http.MaxBytesReader(w, body, maxSubmitBody))
	if rerr == nil && json.Unmarshal(buf.Bytes(), spec) == nil {
		return nil
	}
	*spec = submitSpec{}
	var rest io.Reader = bytes.NewReader(buf.Bytes())
	if rerr != nil {
		rest = io.MultiReader(rest, errReader{rerr})
	}
	return json.NewDecoder(rest).Decode(spec)
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

func (a liveAPI) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec submitSpec
	if err := decodeSubmit(w, r.Body, &spec); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorBody{"bad request body: " + err.Error()})
		return
	}
	model, ok := trace.ModelByName(spec.Model)
	if !ok {
		writeJSON(w, http.StatusBadRequest, errorBody{
			fmt.Sprintf("unknown model %q (see the workload catalog)", spec.Model)})
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
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	status := http.StatusAccepted
	var body submitVerdict
	deduped := false
	if spec.Key != "" {
		id, deduped, err = a.svc.SubmitKeyed(spec.Key, j)
		body.Deduped = &dedupedNo
		if deduped {
			body.Deduped = &dedupedYes
		}
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
		body.Name = j.Name
	}
	body.ID = id
	body.Member, _ = a.svc.Snapshot().Owner(id)
	writeJSON(w, status, &body)
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
		writeJSON(w, http.StatusBadRequest, errorBody{"bad job id: " + err.Error()})
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
		writeJSON(w, http.StatusBadRequest, errorBody{"bad job id: " + err.Error()})
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
	writeJSON(w, http.StatusOK, cancelVerdict{Cancelled: true, ID: id})
}

func writeUnknownJob(w http.ResponseWriter, id int) {
	writeJSON(w, http.StatusNotFound, errorBody{fmt.Sprintf("unknown job %d", id)})
}
