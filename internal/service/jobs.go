package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	intliot "github.com/neu-sns/intl-iot-go"
	"github.com/neu-sns/intl-iot-go/internal/faults"
	"github.com/neu-sns/intl-iot-go/internal/fleet"
	"github.com/neu-sns/intl-iot-go/internal/ingest"
	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/report"
	"github.com/neu-sns/intl-iot-go/internal/reshape"
)

// JobSpec describes one campaign to run: either a synthesized campaign
// at a named scale, or the ingestion of an on-disk capture directory
// (an upload, or an operator-provided path). The zero value plus one of
// Scale/CaptureDir is a valid spec.
type JobSpec struct {
	// Origin records who asked for the job ("schedule:<name>", "upload",
	// "api"); it is informational.
	Origin string `json:"origin,omitempty"`
	// Scale names the synthesis campaign size (intliot.ScaleConfig);
	// ignored when CaptureDir is set. Empty means "tiny".
	Scale string `json:"scale,omitempty"`
	// CaptureDir replays a Mon(IoT)r capture tree instead of
	// synthesizing.
	CaptureDir string `json:"capture_dir,omitempty"`
	// RemoveDir deletes CaptureDir when the job finishes; the upload
	// handler sets it so spooled archives don't accumulate.
	RemoveDir bool `json:"-"`
	// Stream selects the single-decode fold pass (ingest.Options) over
	// buffered ingestion; uploads default to streaming.
	Stream bool `json:"stream,omitempty"`
	// Strict fails an ingest job whose report skipped anything.
	Strict bool `json:"strict,omitempty"`
	// FaultProfile/FaultSeed run a synthesis campaign over an impaired
	// network (internal/faults); per-job, so one schedule can run clean
	// and another lossy.
	FaultProfile string `json:"faults,omitempty"`
	FaultSeed    int64  `json:"fault_seed,omitempty"`
	// Reshape applies a traffic-reshaping defense stack
	// (internal/reshape; comma-separated "pad,shape,dummy,vpn") to the
	// campaign — synthesized or ingested — before any analysis sees it.
	// ReshapeSeed seeds the engine (0 = campaign seed) and ReshapeBudget
	// is the overhead budget in [0, 1].
	Reshape       string  `json:"reshape,omitempty"`
	ReshapeSeed   int64   `json:"reshape_seed,omitempty"`
	ReshapeBudget float64 `json:"reshape_budget,omitempty"`
	// Workers bounds analysis parallelism (0 = one per core). Fleet
	// jobs reuse it as cross-home parallelism.
	Workers int `json:"workers,omitempty"`
	// Uncontrolled adds the §7.3 user-study leg (synthesis jobs only).
	Uncontrolled bool `json:"uncontrolled,omitempty"`
	// FleetHomes, when positive, replaces the two-lab study with a
	// fleet-scale campaign of N simulated homes (internal/fleet);
	// FleetSeed derives the whole fleet (0 means seed 1). Scale,
	// FaultProfile and Uncontrolled do not apply — homes draw their own
	// fault profiles.
	FleetHomes int   `json:"fleet,omitempty"`
	FleetSeed  int64 `json:"fleet_seed,omitempty"`
}

// validate rejects specs that would only fail after queueing.
func (s JobSpec) validate() error {
	if _, err := faults.ByName(s.FaultProfile); err != nil {
		return err
	}
	if _, err := reshape.ParseStack(s.Reshape); err != nil {
		return err
	}
	if s.ReshapeBudget < 0 || s.ReshapeBudget > 1 {
		return fmt.Errorf("service: reshape budget %v out of range [0, 1]", s.ReshapeBudget)
	}
	if s.CaptureDir == "" {
		scale := s.Scale
		if scale == "" {
			scale = "tiny"
		}
		if _, err := intliot.ScaleConfig(scale); err != nil {
			return err
		}
	}
	if s.Workers < 0 {
		return fmt.Errorf("service: negative workers")
	}
	if s.FleetHomes < 0 || s.FleetHomes > fleet.MaxHomes {
		return fmt.Errorf("service: fleet size %d out of range [0, %d]", s.FleetHomes, fleet.MaxHomes)
	}
	if s.FleetHomes > 0 && s.CaptureDir != "" {
		return fmt.Errorf("service: a job is either a fleet campaign or a capture ingest, not both")
	}
	return nil
}

// JobState is a job's lifecycle position.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Job is one queued or executed campaign.
type Job struct {
	ID   string
	Spec JobSpec

	mu        sync.Mutex
	state     JobState
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	ingest    *ingest.Report
	doc       *report.Document
	done      chan struct{}
}

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Err returns the failure message ("" unless state is failed).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// SetDocument attaches the job's report document. The built-in runner
// calls it with the campaign's canonical document; custom
// ManagerConfig.Run hooks call it to make their result visible to the
// report API.
func (j *Job) SetDocument(doc *report.Document) {
	j.mu.Lock()
	j.doc = doc
	j.mu.Unlock()
}

// Document returns the job's report document, or nil until the job is
// done.
func (j *Job) Document() *report.Document {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone {
		return nil
	}
	return j.doc
}

// JobStatus is the JSON-facing snapshot of a job. Times are RFC 3339
// strings (empty until reached) so queued jobs don't render zero times.
type JobStatus struct {
	ID              string   `json:"id"`
	Origin          string   `json:"origin,omitempty"`
	State           JobState `json:"state"`
	Error           string   `json:"error,omitempty"`
	Scale           string   `json:"scale,omitempty"`
	Fleet           int      `json:"fleet,omitempty"`
	Ingesting       bool     `json:"ingesting,omitempty"`
	Submitted       string   `json:"submitted"`
	Started         string   `json:"started,omitempty"`
	Finished        string   `json:"finished,omitempty"`
	DurationSeconds float64  `json:"duration_seconds,omitempty"`
	Ingest          string   `json:"ingest,omitempty"`
}

// Status snapshots the job for serialization.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		Origin:    j.Spec.Origin,
		State:     j.state,
		Error:     j.errMsg,
		Scale:     j.Spec.Scale,
		Fleet:     j.Spec.FleetHomes,
		Ingesting: j.Spec.CaptureDir != "",
		Submitted: rfc3339(j.submitted),
		Started:   rfc3339(j.started),
		Finished:  rfc3339(j.finished),
	}
	if !j.started.IsZero() && !j.finished.IsZero() {
		st.DurationSeconds = j.finished.Sub(j.started).Seconds()
	}
	if j.ingest != nil {
		st.Ingest = j.ingest.String()
	}
	return st
}

func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

func (j *Job) setRunning(now time.Time) {
	j.mu.Lock()
	j.state = JobRunning
	j.started = now
	j.mu.Unlock()
}

func (j *Job) finish(now time.Time, state JobState, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.finished = now
	j.mu.Unlock()
	close(j.done)
}

// Submission errors the HTTP layer maps to status codes.
var (
	ErrQueueFull = errors.New("service: job queue full")
	ErrDraining  = errors.New("service: shutting down")
)

// ManagerConfig sizes a job manager.
type ManagerConfig struct {
	// Workers is the number of jobs run concurrently (default 1).
	Workers int
	// Queue is the number of jobs held beyond the running ones before
	// Submit rejects with ErrQueueFull (default 8).
	Queue int
	// Clock defaults to the wall clock.
	Clock Clock
	// Metrics receives job counters and durations; nil disables.
	Metrics *obs.Registry
	// Logf receives job lifecycle lines; nil discards.
	Logf func(format string, args ...any)
	// Run overrides job execution, for tests. nil runs the real
	// campaign (Manager.runStudy).
	Run func(ctx context.Context, job *Job) error
}

// Manager owns the job queue: a bounded channel feeding a fixed worker
// pool, so at most Workers campaigns run at once and at most Queue more
// wait. Shutdown drains in-flight jobs for a grace period, then cancels
// their context — which the analysis pipeline observes mid-stage.
type Manager struct {
	cfg     ManagerConfig
	clock   Clock
	logf    func(string, ...any)
	metrics *obs.Registry
	run     func(context.Context, *Job) error

	queue     chan *Job
	runCtx    context.Context
	cancelRun context.CancelFunc
	wg        sync.WaitGroup

	mu       sync.Mutex
	jobs     []*Job
	byID     map[string]*Job
	seq      int
	draining bool
	started  bool
}

// NewManager builds a manager; call Start before Submit.
func NewManager(cfg ManagerConfig) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 8
	}
	m := &Manager{
		cfg:     cfg,
		clock:   cfg.Clock,
		logf:    cfg.Logf,
		metrics: cfg.Metrics,
		run:     cfg.Run,
		queue:   make(chan *Job, cfg.Queue),
		byID:    make(map[string]*Job),
	}
	if m.clock == nil {
		m.clock = RealClock()
	}
	if m.logf == nil {
		m.logf = func(string, ...any) {}
	}
	if m.run == nil {
		m.run = m.runStudy
	}
	m.runCtx, m.cancelRun = context.WithCancel(context.Background())
	return m
}

// Start launches the worker pool. It is idempotent.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return
	}
	m.started = true
	for i := 0; i < m.cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
}

// Submit queues a job. It never blocks: a full queue returns
// ErrQueueFull (the HTTP layer's 503), a draining manager ErrDraining,
// and an invalid spec the validation error.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	job := &Job{
		ID:        fmt.Sprintf("job-%04d", m.seq+1),
		Spec:      spec,
		state:     JobQueued,
		submitted: m.clock.Now(),
		done:      make(chan struct{}),
	}
	select {
	case m.queue <- job:
	default:
		m.metrics.Counter("jobs_rejected_total").Inc()
		return nil, ErrQueueFull
	}
	m.seq++
	m.jobs = append(m.jobs, job)
	m.byID[job.ID] = job
	m.metrics.Counter("jobs_submitted_total").Inc()
	m.metrics.Gauge("jobs_queued").Set(float64(len(m.queue)))
	m.logf("job %s submitted (%s)", job.ID, describe(spec))
	return job, nil
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	return j, ok
}

// Jobs snapshots every job in submission order.
func (m *Manager) Jobs() []JobStatus {
	m.mu.Lock()
	jobs := append([]*Job(nil), m.jobs...)
	m.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Counts tallies jobs by state.
func (m *Manager) Counts() map[JobState]int {
	out := make(map[JobState]int)
	for _, st := range m.Jobs() {
		out[st.State]++
	}
	return out
}

// QueueDepth returns the number of jobs waiting to start.
func (m *Manager) QueueDepth() int { return len(m.queue) }

func (m *Manager) isDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Shutdown stops the manager: no new submissions, queued jobs are
// cancelled, and in-flight jobs get grace to drain before their context
// is cancelled — at which point the analysis pipeline aborts mid-stage
// and the jobs finish as cancelled. Shutdown returns once every worker
// has exited. A non-positive grace cancels immediately.
func (m *Manager) Shutdown(grace time.Duration) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.draining = true
	started := m.started
	m.mu.Unlock()
	close(m.queue)
	if !started {
		// No workers: cancel whatever sits in the queue ourselves.
		for job := range m.queue {
			job.finish(m.clock.Now(), JobCanceled, "daemon shutting down")
		}
		return
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	if grace > 0 {
		select {
		case <-done:
			return
		case <-m.clock.After(grace):
			m.logf("shutdown grace %v expired; cancelling in-flight jobs", grace)
		}
	}
	m.cancelRun()
	<-done
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.metrics.Gauge("jobs_queued").Set(float64(len(m.queue)))
		if m.isDraining() {
			job.finish(m.clock.Now(), JobCanceled, "daemon shutting down")
			m.metrics.Counter("jobs_canceled_total").Inc()
			m.logf("job %s cancelled before start", job.ID)
			continue
		}
		m.runOne(job)
	}
}

func (m *Manager) runOne(job *Job) {
	job.setRunning(m.clock.Now())
	m.metrics.Gauge("jobs_running").Add(1)
	m.logf("job %s running", job.ID)
	err := m.run(m.runCtx, job)
	now := m.clock.Now()
	switch {
	case errors.Is(err, context.Canceled):
		job.finish(now, JobCanceled, "cancelled during shutdown")
		m.metrics.Counter("jobs_canceled_total").Inc()
	case err != nil:
		job.finish(now, JobFailed, err.Error())
		m.metrics.Counter("jobs_failed_total").Inc()
	default:
		job.finish(now, JobDone, "")
		m.metrics.Counter("jobs_done_total").Inc()
	}
	st := job.Status()
	m.metrics.Histogram("job_seconds", []float64{1, 10, 60, 600, 3600}).
		Observe(st.DurationSeconds)
	m.metrics.Gauge("jobs_running").Add(-1)
	m.logf("job %s %s (%.2fs)", job.ID, st.State, st.DurationSeconds)
}

// runStudy executes a job's campaign for real: build the study
// (synthesis or capture ingestion), run the full analysis pipeline
// under the shutdown context, and capture the canonical report
// document. It is the default ManagerConfig.Run.
func (m *Manager) runStudy(ctx context.Context, job *Job) error {
	spec := job.Spec
	if spec.FleetHomes > 0 {
		seed := spec.FleetSeed
		if seed == 0 {
			seed = 1
		}
		agg, err := fleet.Run(ctx, fleet.Config{
			Homes:   spec.FleetHomes,
			Seed:    seed,
			Workers: spec.Workers,
		}, m.metrics)
		if err != nil {
			return err
		}
		job.SetDocument(report.FleetDocument(agg))
		return nil
	}
	var study *intliot.Study
	var src *ingest.Source
	if spec.CaptureDir != "" {
		if spec.RemoveDir {
			defer os.RemoveAll(spec.CaptureDir)
		}
		var err error
		src, err = ingest.Open(spec.CaptureDir, ingest.Options{Stream: spec.Stream})
		if err != nil {
			return err
		}
		// Ingested captures carry no campaign seed; seed 1 is the
		// documented default for defended replays.
		eng, err := intliot.NewReshapeEngine(intliot.Config{
			Seed: 1, Reshape: spec.Reshape,
			ReshapeSeed: spec.ReshapeSeed, ReshapeBudget: spec.ReshapeBudget,
		})
		if err != nil {
			return err
		}
		study = intliot.NewStudyFromSource(src)
		study.SetDefense(eng)
	} else {
		scale := spec.Scale
		if scale == "" {
			scale = "tiny"
		}
		cfg, err := intliot.ScaleConfig(scale)
		if err != nil {
			return err
		}
		cfg.FaultProfile = spec.FaultProfile
		cfg.FaultSeed = spec.FaultSeed
		cfg.Reshape = spec.Reshape
		cfg.ReshapeSeed = spec.ReshapeSeed
		cfg.ReshapeBudget = spec.ReshapeBudget
		study, err = intliot.NewStudy(cfg)
		if err != nil {
			return err
		}
	}
	study.SetAnalysisWorkers(spec.Workers)
	study.SetContext(ctx)
	study.SetObs(m.metrics)
	study.Run()
	if study.Aborted() {
		return context.Canceled
	}
	if src != nil {
		rep := src.Report()
		job.mu.Lock()
		job.ingest = &rep
		job.mu.Unlock()
		if spec.Strict {
			if err := rep.Strict(); err != nil {
				return err
			}
		}
	}
	if spec.Uncontrolled && spec.CaptureDir == "" {
		if err := study.RunUncontrolled(); err != nil {
			return err
		}
		if study.Aborted() {
			return context.Canceled
		}
	}
	job.SetDocument(study.ReportDocument())
	return nil
}

func describe(spec JobSpec) string {
	if spec.FleetHomes > 0 {
		return fmt.Sprintf("fleet of %d homes", spec.FleetHomes)
	}
	if spec.CaptureDir != "" {
		mode := "buffered"
		if spec.Stream {
			mode = "streaming"
		}
		return fmt.Sprintf("ingest %s, %s", spec.CaptureDir, mode)
	}
	scale := spec.Scale
	if scale == "" {
		scale = "tiny"
	}
	desc := "synthesize " + scale
	if spec.FaultProfile != "" && spec.FaultProfile != "clean" {
		desc += ", faults=" + spec.FaultProfile
	}
	if stack, _ := reshape.ParseStack(spec.Reshape); len(stack) > 0 {
		desc += fmt.Sprintf(", reshape=%s@%.2f", spec.Reshape, spec.ReshapeBudget)
	}
	return desc
}
