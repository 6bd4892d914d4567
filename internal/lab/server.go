package lab

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"bots/internal/core"
	"bots/internal/obs"
	"bots/internal/obs/obshttp"
)

// ErrUnknownFigure is returned by a RenderFunc for a figure name it
// does not dispatch; the server maps it to 404.
var ErrUnknownFigure = errors.New("lab: unknown report figure")

// RenderFunc renders one named report artifact (a figure, table, or
// ablation) from cached records to w. The lab package does not depend
// on the report layer; cmd/botslab injects the report renderer here.
type RenderFunc func(w io.Writer, figure string, class core.Class, threads []int) error

// Server is the `bots serve` HTTP service: it accepts sweep
// manifests, reports sweep progress (with optional streaming), serves
// the result store, and renders report figures from cached records.
type Server struct {
	Disp  *Dispatcher
	Store *Store
	// Fleet, when non-nil, enables the coordinator endpoints (worker
	// registration, leases, heartbeats, results). Without it the fleet
	// routes answer 503: the server is deliberately local-only.
	Fleet *Fleet
	// Render, when non-nil, backs GET /report/{figure}.
	Render RenderFunc
	// PollInterval is the status-streaming poll period (default 100ms).
	PollInterval time.Duration
	// Obs backs GET /metrics. When nil, Handler creates a private
	// registry; either way the server's own bots_lab_* gauges (store
	// size, sweep/job counts) are registered into it on first Handler
	// call, so a shared registry (cmd/botslab passes one) exposes lab
	// state alongside whatever else the process publishes.
	Obs *obs.Registry

	obsOnce sync.Once
}

// Handler returns the service's HTTP handler:
//
//	POST /sweeps              submit a SweepSpec manifest → 202 + status
//	GET  /sweeps              list sweep statuses
//	GET  /sweeps/{id}         one sweep's status; ?follow=true streams
//	                          NDJSON snapshots until the sweep finishes
//	DELETE /sweeps/{id}       cancel: queued cells flip to cancelled,
//	                          running/leased cells finish or expire
//	GET  /results             records, filterable by bench/version/
//	                          class/threads/key/verified
//	GET  /report/{figure}     render a report artifact from the store
//	GET  /healthz             liveness + readiness (store/dispatcher counts)
//	GET  /metrics             Prometheus text exposition (Obs registry)
//	GET  /debug/pprof/...     net/http/pprof profiles
//
// Fleet coordinator routes (503 unless the server has a Fleet):
//
//	POST /workers/register    {name, capacity} → {worker_id, lease_ttl_ns}
//	POST /workers/deregister  {worker_id}
//	POST /leases              {worker_id, max} → {leases: [Lease...]}
//	POST /heartbeats          {worker_id, leases: [{id, elapsed_ns}...]}
//	                          → {renewed, lost}
//	POST /results             {lease_id, record, error}
//	GET  /workers             FleetStatus snapshot
//
// A finished sweep older than the dispatcher's newest 64 finished ones
// is retired: the sweep routes answer for it from a summary with its
// final counts, "retired": true and no "jobs". Every request body is
// capped at maxRequestBody.
func (s *Server) Handler() http.Handler {
	s.obsOnce.Do(func() {
		if s.Obs == nil {
			s.Obs = obs.NewRegistry()
		}
		s.registerObs(s.Obs)
	})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sweeps", s.handleSubmit)
	mux.HandleFunc("GET /sweeps", s.handleListSweeps)
	mux.HandleFunc("GET /sweeps/{id}", s.handleSweep)
	mux.HandleFunc("DELETE /sweeps/{id}", s.handleCancelSweep)
	mux.HandleFunc("GET /results", s.handleResults)
	mux.HandleFunc("POST /workers/register", s.fleetHandler(s.handleWorkerRegister))
	mux.HandleFunc("POST /workers/deregister", s.fleetHandler(s.handleWorkerDeregister))
	mux.HandleFunc("GET /workers", s.fleetHandler(s.handleWorkers))
	mux.HandleFunc("POST /leases", s.fleetHandler(s.handleLeases))
	mux.HandleFunc("POST /heartbeats", s.fleetHandler(s.handleHeartbeats))
	mux.HandleFunc("POST /results", s.fleetHandler(s.handleResult))
	mux.HandleFunc("GET /report/{figure}", s.handleReport)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	obshttp.Mount(mux, s.Obs)
	return http.MaxBytesHandler(mux, maxRequestBody)
}

// maxRequestBody caps every request body the server reads, so no
// client can make a handler decode an unbounded stream: 1 MiB, the cap
// a WorkerClient puts on the coordinator's responses. A body past it
// fails to decode, and its request gets a 400.
const maxRequestBody = 1 << 20

// registerObs publishes the lab server's own state as scrape-time
// gauges (DESIGN.md §11): store size, sweep count, and job counts by
// state.
func (s *Server) registerObs(reg *obs.Registry) {
	obs.RegisterRuntimeMetrics(reg)
	reg.GaugeFunc("bots_lab_store_records", "Result records cached in the store.",
		func() float64 {
			if s.Store == nil {
				return 0
			}
			return float64(s.Store.Len())
		})
	reg.GaugeFunc("bots_lab_sweeps", "Sweeps submitted to the dispatcher.",
		func() float64 {
			if s.Disp == nil {
				return 0
			}
			return float64(s.Disp.Counts().Sweeps)
		})
	for _, st := range []struct {
		name string
		sel  func(Counts) int
	}{
		{"queued", func(c Counts) int { return c.Queued }},
		{"running", func(c Counts) int { return c.Running }},
		{"done", func(c Counts) int { return c.Done }},
		{"failed", func(c Counts) int { return c.Failed }},
		{"cancelled", func(c Counts) int { return c.Cancelled }},
	} {
		st := st
		reg.GaugeFunc("bots_lab_jobs", "Dispatcher jobs by state.",
			func() float64 {
				if s.Disp == nil {
					return 0
				}
				return float64(st.sel(s.Disp.Counts()))
			}, obs.Label{Name: "state", Value: st.name})
	}
	if s.Fleet == nil {
		return
	}
	// Fleet observability rides the same scrape-time-closure idiom as
	// the rest: each sample is one Fleet.Status() snapshot.
	for _, ws := range []string{WorkerIdle, WorkerBusy, WorkerDead} {
		ws := ws
		reg.GaugeFunc("bots_lab_workers", "Registered fleet workers by state.",
			func() float64 {
				return float64(s.Fleet.Status().WorkersByState()[ws])
			}, obs.Label{Name: "state", Value: ws})
	}
	reg.GaugeFunc("bots_lab_leases_active", "Fleet leases currently outstanding.",
		func() float64 { return float64(s.Fleet.Status().LeasesActive) })
	reg.CounterFunc("bots_lab_leases_granted_total", "Fleet leases handed out since start.",
		func() float64 { return float64(s.Fleet.Status().LeasesGranted) })
	reg.CounterFunc("bots_lab_leases_expired_total", "Fleet leases lost to a missed deadline.",
		func() float64 { return float64(s.Fleet.Status().LeasesExpired) })
}

// fleetHandler gates a coordinator route on the fleet being enabled.
func (s *Server) fleetHandler(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.Fleet == nil {
			httpError(w, http.StatusServiceUnavailable, "lab: this server runs without a fleet (start with -fleet)")
			return
		}
		h(w, r)
	}
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "lab: decoding request body: %v", err)
		return false
	}
	return true
}

func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name     string `json:"name"`
		Capacity int    `json:"capacity"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Name == "" {
		httpError(w, http.StatusBadRequest, "lab: worker registration needs a name")
		return
	}
	id := s.Fleet.Register(req.Name, req.Capacity)
	writeJSON(w, http.StatusOK, map[string]any{
		"worker_id":    id,
		"lease_ttl_ns": s.Fleet.LeaseTTL().Nanoseconds(),
	})
}

func (s *Server) handleWorkerDeregister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		WorkerID string `json:"worker_id"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	s.Fleet.Deregister(req.WorkerID)
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Fleet.Status())
}

func (s *Server) handleLeases(w http.ResponseWriter, r *http.Request) {
	var req struct {
		WorkerID string `json:"worker_id"`
		Max      int    `json:"max"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	leases, err := s.Fleet.Lease(req.WorkerID, req.Max)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	if leases == nil {
		leases = []Lease{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"leases": leases})
}

func (s *Server) handleHeartbeats(w http.ResponseWriter, r *http.Request) {
	var req struct {
		WorkerID string              `json:"worker_id"`
		Leases   []HeartbeatProgress `json:"leases"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	renewed, lost, err := s.Fleet.Heartbeat(req.WorkerID, req.Leases)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	if renewed == nil {
		renewed = []string{}
	}
	if lost == nil {
		lost = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"renewed": renewed, "lost": lost})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	var req struct {
		LeaseID string  `json:"lease_id"`
		Record  *Record `json:"record"`
		Error   string  `json:"error"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.LeaseID == "" {
		httpError(w, http.StatusBadRequest, "lab: result needs a lease_id")
		return
	}
	s.Fleet.Complete(req.LeaseID, req.Record, req.Error)
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleHealthz reports liveness plus readiness: a fleet probe needs
// to distinguish a process that is up from one that can actually take
// work, so the body carries the store size and the dispatcher's
// accepting flag and queued/running/done/failed counts. ok means the
// process is live; ready means submissions are currently accepted.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var c Counts
	if s.Disp != nil {
		c = s.Disp.Counts()
	}
	records := 0
	if s.Store != nil {
		records = s.Store.Len()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":      true,
		"ready":   c.Accepting,
		"records": records,
		"sweeps":  c.Sweeps,
		"jobs": map[string]int{
			"queued":    c.Queued,
			"running":   c.Running,
			"done":      c.Done,
			"failed":    c.Failed,
			"cancelled": c.Cancelled,
		},
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := ReadSweepSpec(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sw, err := s.Disp.Submit(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, sw.Status())
}

func (s *Server) handleListSweeps(w http.ResponseWriter, r *http.Request) {
	out := []SweepStatus{}
	for _, sw := range s.Disp.Sweeps() {
		out = append(out, sw.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.Disp.Sweep(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "lab: unknown sweep %q", r.PathValue("id"))
		return
	}
	if r.URL.Query().Get("follow") != "true" {
		writeJSON(w, http.StatusOK, sw.Status())
		return
	}
	// Streaming progress: one NDJSON snapshot per state change until
	// the sweep finishes or the client goes away.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(st SweepStatus) {
		enc.Encode(st)
		if flusher != nil {
			flusher.Flush()
		}
	}
	interval := s.PollInterval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	last := sw.Status()
	emit(last)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for !last.Finished() {
		select {
		case <-r.Context().Done():
			return
		case <-sw.Done():
		case <-ticker.C:
		}
		st := sw.Status()
		if st.Queued != last.Queued || st.Running != last.Running ||
			st.Done != last.Done || st.Failed != last.Failed ||
			st.Cancelled != last.Cancelled || st.State != last.State {
			emit(st)
		}
		last = st
	}
}

// handleCancelSweep is DELETE /sweeps/{id}: queued cells (including
// those waiting out a retry backoff) flip to cancelled immediately;
// cells already running or leased to fleet workers finish or expire on
// their own. A follower streaming ?follow=true sees a terminal
// snapshot with state "cancelled" once the last straggler resolves.
func (s *Server) handleCancelSweep(w http.ResponseWriter, r *http.Request) {
	st, err := s.Disp.Cancel(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := Filter{
		Bench:   q.Get("bench"),
		Version: q.Get("version"),
		Class:   q.Get("class"),
		Key:     q.Get("key"),
	}
	if t := q.Get("threads"); t != "" {
		n, err := strconv.Atoi(t)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "lab: bad threads filter %q", t)
			return
		}
		f.Threads = n
	}
	if v := q.Get("verified"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "lab: bad verified filter %q", v)
			return
		}
		f.Verified = &b
	}
	recs := s.Store.Select(f)
	if recs == nil {
		recs = []*Record{}
	}
	writeJSON(w, http.StatusOK, recs)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if s.Render == nil {
		httpError(w, http.StatusNotImplemented, "lab: this server has no report renderer")
		return
	}
	figure := r.PathValue("figure")
	q := r.URL.Query()
	class := core.Test
	if c := q.Get("class"); c != "" {
		var err error
		if class, err = core.ParseClass(c); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	var threads []int
	if t := q.Get("threads"); t != "" {
		for _, part := range strings.Split(t, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				httpError(w, http.StatusBadRequest, "lab: bad threads axis %q", t)
				return
			}
			threads = append(threads, n)
		}
	}
	// Render into a buffer so a failure maps to a clean status code
	// instead of a half-written page.
	var buf bytes.Buffer
	if err := s.Render(&buf, figure, class, threads); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrUnknownFigure) {
			status = http.StatusNotFound
		}
		httpError(w, status, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(buf.Bytes())
}
