package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/ingest"
	"github.com/neu-sns/intl-iot-go/internal/obs"
)

// ServerConfig wires a Server to the daemon's moving parts.
type ServerConfig struct {
	Manager   *Manager
	Scheduler *Scheduler
	// Metrics backs /metrics and the request instrumentation; nil
	// disables both (the endpoint then serves an empty snapshot).
	Metrics *obs.Registry
	// Clock is used for uptime and request timing (default wall clock).
	Clock Clock
	// DataDir is where capture uploads are spooled (default: a fresh
	// directory under os.TempDir).
	DataDir string
	// MaxUploadBytes and MaxUploadFiles cap one /api/upload archive:
	// unpacked bytes and capture-file count. Uploads beyond either cap
	// are rejected with 413. Non-positive values use the package
	// defaults (DefaultMaxUploadBytes, DefaultMaxUploadFiles).
	MaxUploadBytes int64
	MaxUploadFiles int
	// Logf receives one structured line per request; nil discards.
	Logf func(format string, args ...any)
}

// Default /api/upload caps, re-exported from internal/ingest so
// cmd/moniotrd can print them as flag defaults.
const (
	DefaultMaxUploadBytes = ingest.MaxUploadBytes
	DefaultMaxUploadFiles = ingest.MaxUploadFiles
)

// Server is moniotrd's HTTP API: campaign status and control as JSON,
// capture uploads feeding streaming ingestion, the metrics snapshot,
// and an embedded HTML dashboard. Build one with NewServer and mount
// Handler on an http.Server.
type Server struct {
	cfg     ServerConfig
	clock   Clock
	logf    func(string, ...any)
	metrics *obs.Registry
	mux     *http.ServeMux
	started time.Time
}

// NewServer builds the HTTP layer over a job manager and scheduler.
func NewServer(cfg ServerConfig) *Server {
	s := &Server{
		cfg:     cfg,
		clock:   cfg.Clock,
		logf:    cfg.Logf,
		metrics: cfg.Metrics,
		mux:     http.NewServeMux(),
	}
	if s.clock == nil {
		s.clock = RealClock()
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	s.started = s.clock.Now()

	s.mux.HandleFunc("GET /{$}", s.handleDashboard)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.Handle("GET /metrics", s.metrics.Handler())
	s.mux.HandleFunc("GET /api/status", s.handleStatus)
	s.mux.HandleFunc("GET /api/schedules", s.handleSchedules)
	s.mux.HandleFunc("GET /api/jobs", s.handleJobs)
	s.mux.HandleFunc("POST /api/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /api/jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("POST /api/upload", s.handleUpload)
	return s
}

// Handler returns the server's root handler, with request logging and
// metrics instrumentation applied.
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with structured request logging and
// http_* metrics. One line per request: method, path, status, bytes
// read, duration.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := s.clock.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, req)
		elapsed := s.clock.Now().Sub(start)
		s.metrics.Counter("http_requests_total").Inc()
		if rec.status >= 500 {
			s.metrics.Counter("http_errors_total").Inc()
		}
		s.metrics.Histogram("http_request_seconds", []float64{.001, .01, .1, 1, 10}).
			Observe(elapsed.Seconds())
		s.logf("http method=%s path=%s status=%d dur=%s", req.Method, req.URL.Path, rec.status, elapsed.Round(time.Microsecond))
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// DaemonStatus is the /api/status payload.
type DaemonStatus struct {
	Now           string           `json:"now"`
	Started       string           `json:"started"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Draining      bool             `json:"draining"`
	QueueDepth    int              `json:"queue_depth"`
	Jobs          map[JobState]int `json:"jobs"`
	Schedules     []EntryStatus    `json:"schedules"`
}

// Status snapshots the daemon for /api/status (exported for the CLI's
// -simulate summary and tests).
func (s *Server) Status() DaemonStatus {
	now := s.clock.Now()
	st := DaemonStatus{
		Now:           rfc3339(now),
		Started:       rfc3339(s.started),
		UptimeSeconds: now.Sub(s.started).Seconds(),
		Schedules:     []EntryStatus{},
		Jobs:          map[JobState]int{},
	}
	if s.cfg.Manager != nil {
		st.Draining = s.cfg.Manager.isDraining()
		st.QueueDepth = s.cfg.Manager.QueueDepth()
		st.Jobs = s.cfg.Manager.Counts()
	}
	if s.cfg.Scheduler != nil {
		st.Schedules = s.cfg.Scheduler.Entries()
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}

func (s *Server) handleSchedules(w http.ResponseWriter, _ *http.Request) {
	entries := []EntryStatus{}
	if s.cfg.Scheduler != nil {
		entries = s.cfg.Scheduler.Entries()
	}
	writeJSON(w, http.StatusOK, entries)
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	jobs := []JobStatus{}
	if s.cfg.Manager != nil {
		jobs = s.cfg.Manager.Jobs()
	}
	writeJSON(w, http.StatusOK, jobs)
}

// handleSubmit queues a campaign from a JSON JobSpec body. 202 with the
// job status on success; 503 when the queue is full or the daemon is
// draining.
func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	if s.cfg.Manager == nil {
		writeError(w, http.StatusServiceUnavailable, "no job manager")
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	if spec.CaptureDir != "" {
		// Arbitrary paths would let a request read any directory the
		// daemon can; captures arrive through /api/upload instead.
		writeError(w, http.StatusBadRequest, "capture_dir is not accepted here; POST the archive to /api/upload")
		return
	}
	spec.Origin = "api"
	s.submit(w, spec)
}

func (s *Server) submit(w http.ResponseWriter, spec JobSpec) {
	job, err := s.cfg.Manager.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, "job queue full")
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "daemon is shutting down")
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeJSON(w, http.StatusAccepted, job.Status())
	}
}

func (s *Server) handleJob(w http.ResponseWriter, req *http.Request) {
	job, ok := s.lookup(w, req)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// handleReport serves a finished job's paper tables as one canonical
// JSON document — the same bytes `moniotr -json` prints for the same
// campaign. ?tables=1,5,pii filters by table key.
func (s *Server) handleReport(w http.ResponseWriter, req *http.Request) {
	job, ok := s.lookup(w, req)
	if !ok {
		return
	}
	doc := job.Document()
	if doc == nil {
		switch job.State() {
		case JobFailed, JobCanceled:
			writeError(w, http.StatusConflict, "job %s %s: %s", job.ID, job.State(), job.Err())
		default:
			writeError(w, http.StatusConflict, "job %s is %s; report not ready", job.ID, job.State())
		}
		return
	}
	if tables := req.URL.Query().Get("tables"); tables != "" && tables != "all" {
		want := map[string]bool{}
		for _, t := range strings.Split(tables, ",") {
			want[strings.TrimSpace(t)] = true
		}
		doc = doc.Filter(func(key string) bool { return want[key] })
	}
	w.Header().Set("Content-Type", "application/json")
	doc.RenderJSON(w)
}

func (s *Server) lookup(w http.ResponseWriter, req *http.Request) (*Job, bool) {
	if s.cfg.Manager == nil {
		writeError(w, http.StatusNotFound, "no job manager")
		return nil, false
	}
	id := req.PathValue("id")
	job, ok := s.cfg.Manager.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return nil, false
	}
	return job, true
}

// handleUpload accepts a tar archive of a Mon(IoT)r capture directory
// (as written by `moniotr -export-captures`; `tar -cf - -C dir .`),
// spools it under DataDir, and queues a streaming-ingest job over it.
// Query parameters: stream=0 buffers instead of running the
// single-decode fold pass, strict=1 fails the job if anything is
// skipped, workers=N bounds analysis parallelism.
func (s *Server) handleUpload(w http.ResponseWriter, req *http.Request) {
	if s.cfg.Manager == nil {
		writeError(w, http.StatusServiceUnavailable, "no job manager")
		return
	}
	q := req.URL.Query()
	spec := JobSpec{
		Origin:    "upload",
		RemoveDir: true,
		Stream:    q.Get("stream") != "0",
		Strict:    q.Get("strict") == "1",
	}
	var err error
	if v := q.Get("workers"); v != "" {
		if spec.Workers, err = strconv.Atoi(v); err != nil {
			writeError(w, http.StatusBadRequest, "bad workers: %v", err)
			return
		}
	}
	dataDir := s.cfg.DataDir
	if dataDir == "" {
		dataDir = os.TempDir()
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		writeError(w, http.StatusInternalServerError, "spool: %v", err)
		return
	}
	dir, err := os.MkdirTemp(dataDir, "upload-*")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "spool: %v", err)
		return
	}
	files, bytes, skipped, err := ingest.UnpackTarLimited(dir, req.Body, s.cfg.MaxUploadFiles, s.cfg.MaxUploadBytes)
	if err != nil {
		os.RemoveAll(dir)
		if errors.Is(err, ingest.ErrUploadTooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "unpack: %v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "unpack: %v", err)
		return
	}
	if files == 0 {
		os.RemoveAll(dir)
		writeError(w, http.StatusBadRequest, "archive holds no .pcap/.labels files")
		return
	}
	s.metrics.Counter("uploads_total").Inc()
	s.metrics.Counter("upload_bytes_total").Add(bytes)
	s.logf("upload: %d files, %s, %d entries skipped -> %s", files, obs.HumanBytes(bytes), skipped, dir)
	spec.CaptureDir = dir
	s.submit(w, spec)
}
