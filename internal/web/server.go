package web

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"sort"

	"repro/internal/federation"
	"repro/internal/metrics"
)

// provider supplies the snapshot the dashboard pages render, one
// report per member in display order. *service.Service is the
// program's one implementation. Each request loads one snapshot, so a
// page never mixes members from different instants.
type provider interface {
	Snapshot() *federation.FedSnapshot
}

// Server renders a running scheduler service as a web dashboard and
// serves its control API (see NewLiveServer).
type Server struct {
	src provider
	mux *http.ServeMux
}

// newServer registers the dashboard pages over src.
func newServer(src provider) *Server {
	s := &Server{src: src, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/cdf.svg", s.handleCDF)
	s.mux.HandleFunc("/occupancy.svg", s.handleOccupancy)
	s.mux.HandleFunc("/utilization.svg", s.handleUtilization)
	s.mux.HandleFunc("/jobs", s.handleJobs)
	s.mux.HandleFunc("/api/summary", s.handleSummary)
	return s
}

// Handler returns the dashboard's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>hadar-go dashboard</title>
<style>
body { font-family: sans-serif; margin: 24px; color: #222; }
table { border-collapse: collapse; margin: 12px 0 24px; }
th, td { border: 1px solid #ccc; padding: 6px 12px; text-align: right; }
th:first-child, td:first-child { text-align: left; }
h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 28px; }
a { color: #1f77b4; }
</style></head><body>
<h1>Hadar reproduction — scheduling comparison</h1>
<table>
<tr><th>scheduler</th><th>avg JCT (h)</th><th>median JCT (h)</th>
<th>makespan (h)</th><th>utilization</th><th>avg FTF</th>
<th>queue delay (h)</th><th>realloc %</th><th></th></tr>
{{range .Rows}}
<tr><td>{{.Name}}</td><td>{{printf "%.2f" .AvgJCT}}</td>
<td>{{printf "%.2f" .MedianJCT}}</td><td>{{printf "%.2f" .Makespan}}</td>
<td>{{printf "%.1f%%" .Utilization}}</td><td>{{printf "%.2f" .FTF}}</td>
<td>{{printf "%.2f" .Queue}}</td><td>{{printf "%.1f%%" .Realloc}}</td>
<td><a href="/jobs?scheduler={{.Name}}">jobs</a></td></tr>
{{end}}
</table>
{{if .FaultRows}}
<h2>Fault tolerance</h2>
<table>
<tr><th>scheduler</th><th>node down</th><th>node up</th><th>recoveries</th>
<th>lost iterations</th></tr>
{{range .FaultRows}}
<tr><td>{{.Name}}</td><td>{{.F.NodeDown}}</td><td>{{.F.NodeUp}}</td><td>{{.F.Recoveries}}</td>
<td>{{printf "%.0f" .F.LostIterations}}</td></tr>
{{end}}
</table>
{{end}}
<h2>Completion CDF</h2><img src="/cdf.svg" alt="completion CDF">
<h2>GPU utilization</h2><img src="/utilization.svg" alt="utilization">
<h2>Cluster occupancy ({{.First}})</h2>
<img src="/occupancy.svg?scheduler={{.First}}" alt="occupancy">
<p><a href="/api/summary">JSON summary</a></p>
</body></html>`))

type indexRow struct {
	Name        string
	AvgJCT      float64
	MedianJCT   float64
	Makespan    float64
	Utilization float64
	FTF         float64
	Queue       float64
	Realloc     float64
}

// faultRow is one scheduler's fault-tolerance counters; the section
// renders only for runs that actually saw faults.
type faultRow struct {
	Name string
	F    metrics.FaultStats
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	data := struct {
		Rows      []indexRow
		FaultRows []faultRow
		First     string
	}{}
	snap := s.src.Snapshot()
	for _, m := range snap.Members {
		name, rep := m.Name, m.Snap.Report
		if rep.Faults.Any() {
			data.FaultRows = append(data.FaultRows, faultRow{Name: name, F: rep.Faults})
		}
		data.Rows = append(data.Rows, indexRow{
			Name:        name,
			AvgJCT:      rep.AvgJCT() / 3600,
			MedianJCT:   rep.MedianJCT() / 3600,
			Makespan:    rep.Makespan / 3600,
			Utilization: 100 * rep.Utilization(),
			FTF:         rep.AvgFTF(),
			Queue:       rep.AvgQueueDelay() / 3600,
			Realloc:     100 * rep.ReallocationFraction(),
		})
	}
	if len(snap.Members) > 0 {
		data.First = snap.Members[0].Name
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := indexTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleCDF(w http.ResponseWriter, r *http.Request) {
	var series []svgSeries
	for _, m := range s.src.Snapshot().Members {
		sv := svgSeries{Name: m.Name, Step: true}
		sv.X = append(sv.X, 0)
		sv.Y = append(sv.Y, 0)
		for _, p := range m.Snap.Report.CompletionCDF() {
			sv.X = append(sv.X, p.X/3600)
			sv.Y = append(sv.Y, p.Fraction)
		}
		series = append(series, sv)
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	fmt.Fprint(w, lineSVG("fraction of jobs completed over time", "hours", "fraction", 760, 380, series))
}

// report returns the report of the member the request's scheduler
// parameter names, by default the first; ok is false for unknown names.
func (s *Server) report(r *http.Request) (rep *metrics.Report, name string, ok bool) {
	snap := s.src.Snapshot()
	name = r.URL.Query().Get("scheduler")
	if name == "" && len(snap.Members) > 0 {
		name = snap.Members[0].Name
	}
	if m := snap.Member(name); m != nil {
		return m.Report, name, true
	}
	return nil, name, false
}

func (s *Server) handleOccupancy(w http.ResponseWriter, r *http.Request) {
	rep, name, ok := s.report(r)
	if !ok {
		http.Error(w, "unknown scheduler", http.StatusNotFound)
		return
	}
	sv := svgSeries{Name: name}
	for i, held := range rep.RoundHeld {
		t := 0.0
		if i < len(rep.RoundStarts) {
			t = rep.RoundStarts[i]
		}
		sv.X = append(sv.X, t/3600)
		sv.Y = append(sv.Y, float64(held))
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	fmt.Fprint(w, lineSVG("held workers per round — "+name, "hours", "workers", 760, 300, []svgSeries{sv}))
}

func (s *Server) handleUtilization(w http.ResponseWriter, r *http.Request) {
	var labels []string
	var values []float64
	for _, m := range s.src.Snapshot().Members {
		labels = append(labels, m.Name)
		values = append(values, 100*m.Snap.Report.Utilization())
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	fmt.Fprint(w, barSVG("GPU utilization", "%", 560, labels, values))
}

var jobsTmpl = template.Must(template.New("jobs").Parse(`<!DOCTYPE html>
<html><head><title>{{.Name}} jobs</title>
<style>
body { font-family: sans-serif; margin: 24px; color: #222; }
table { border-collapse: collapse; }
th, td { border: 1px solid #ccc; padding: 4px 10px; text-align: right; }
</style></head><body>
<h1>{{.Name}}: {{len .Jobs}} jobs</h1>
<p><a href="/">back</a></p>
<table>
<tr><th>id</th><th>model</th><th>W</th><th>arrival (h)</th><th>start (h)</th>
<th>finish (h)</th><th>JCT (h)</th><th>FTF</th><th>reallocs</th></tr>
{{range .Jobs}}
<tr><td>{{.ID}}</td><td>{{.Model}}</td><td>{{.Workers}}</td>
<td>{{printf "%.2f" .ArrivalH}}</td><td>{{printf "%.2f" .StartH}}</td>
<td>{{printf "%.2f" .FinishH}}</td><td>{{printf "%.2f" .JCTH}}</td>
<td>{{printf "%.2f" .FTF}}</td><td>{{.Reallocs}}</td></tr>
{{end}}
</table></body></html>`))

type jobRow struct {
	ID       int
	Model    string
	Workers  int
	ArrivalH float64
	StartH   float64
	FinishH  float64
	JCTH     float64
	FTF      float64
	Reallocs int
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	rep, name, ok := s.report(r)
	if !ok {
		http.Error(w, "unknown scheduler", http.StatusNotFound)
		return
	}
	data := struct {
		Name string
		Jobs []jobRow
	}{Name: name}
	for _, j := range rep.Jobs {
		data.Jobs = append(data.Jobs, jobRow{
			ID: j.ID, Model: j.Model, Workers: j.Workers,
			ArrivalH: j.Arrival / 3600, StartH: j.Start / 3600,
			FinishH: j.Finish / 3600, JCTH: j.JCT() / 3600,
			FTF: j.FTF(), Reallocs: j.Reallocations,
		})
	}
	sort.Slice(data.Jobs, func(a, b int) bool { return data.Jobs[a].ID < data.Jobs[b].ID })
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := jobsTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// summaryEntry is one scheduler's JSON summary.
type summaryEntry struct {
	Scheduler     string  `json:"scheduler"`
	AvgJCTSec     float64 `json:"avg_jct_s"`
	MedianJCTSec  float64 `json:"median_jct_s"`
	MakespanSec   float64 `json:"makespan_s"`
	Utilization   float64 `json:"utilization"`
	Occupancy     float64 `json:"occupancy"`
	AvgFTF        float64 `json:"avg_ftf"`
	QueueDelaySec float64 `json:"avg_queue_delay_s"`
	Jobs          int     `json:"jobs"`

	Faults *metrics.FaultStats `json:"faults,omitempty"`
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	var out []summaryEntry
	for _, m := range s.src.Snapshot().Members {
		rep := m.Snap.Report
		e := summaryEntry{
			Scheduler: m.Name, AvgJCTSec: rep.AvgJCT(), MedianJCTSec: rep.MedianJCT(),
			MakespanSec: rep.Makespan, Utilization: rep.Utilization(),
			Occupancy: rep.Occupancy(), AvgFTF: rep.AvgFTF(),
			QueueDelaySec: rep.AvgQueueDelay(), Jobs: len(rep.Jobs),
		}
		if rep.Faults.Any() {
			f := rep.Faults
			e.Faults = &f
		}
		out = append(out, e)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
