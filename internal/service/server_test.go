package service

import (
	"archive/tar"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/neu-sns/intl-iot-go/internal/obs"
	"github.com/neu-sns/intl-iot-go/internal/report"
)

// cannedDoc is what the hooked runner "produces" instead of a campaign.
func cannedDoc() *report.Document {
	tbl := &report.Table{
		Title:   "Devices by destination party",
		Headers: []string{"Device", "First", "Third"},
	}
	tbl.AddRow("camera-1", "3", "2")
	tbl.AddRow("tv-1", "5", "1")
	doc := &report.Document{}
	doc.Add("headline", tbl)
	return doc
}

func cannedRun(ctx context.Context, job *Job) error {
	job.SetDocument(cannedDoc())
	return nil
}

type testDaemon struct {
	mgr   *Manager
	sched *Scheduler
	srv   *Server
	http  *httptest.Server
	reg   *obs.Registry
}

func newTestDaemon(t *testing.T, run func(context.Context, *Job) error) *testDaemon {
	t.Helper()
	if run == nil {
		run = cannedRun
	}
	reg := obs.NewRegistry()
	mgr := NewManager(ManagerConfig{Workers: 1, Queue: 4, Metrics: reg, Run: run})
	mgr.Start()
	sched := NewScheduler(nil, mgr, nil)
	srv := NewServer(ServerConfig{
		Manager:   mgr,
		Scheduler: sched,
		Metrics:   reg,
		DataDir:   t.TempDir(),
	})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		mgr.Shutdown(0)
	})
	return &testDaemon{mgr: mgr, sched: sched, srv: srv, http: hs, reg: reg}
}

func (d *testDaemon) get(t *testing.T, path string, wantCode int, into any) {
	t.Helper()
	resp, err := http.Get(d.http.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d; body: %s", path, resp.StatusCode, wantCode, body)
	}
	if into != nil {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
}

func TestStatusAndHealthEndpoints(t *testing.T) {
	d := newTestDaemon(t, nil)
	d.sched.Add("nightly", DailyAt(3, 30, time.UTC), JobSpec{Scale: "tiny"})

	var st DaemonStatus
	d.get(t, "/api/status", http.StatusOK, &st)
	if len(st.Schedules) != 1 || st.Schedules[0].Name != "nightly" {
		t.Fatalf("status schedules = %+v", st.Schedules)
	}
	if st.Draining {
		t.Fatal("fresh daemon reports draining")
	}
	var health map[string]string
	d.get(t, "/healthz", http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Fatalf("health = %v", health)
	}
}

func TestSubmitJobAndFetchReport(t *testing.T) {
	d := newTestDaemon(t, nil)
	resp, err := http.Post(d.http.URL+"/api/jobs", "application/json",
		strings.NewReader(`{"scale": "tiny", "faults": "lossy-home"}`))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d; body: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Origin != "api" {
		t.Fatalf("origin = %q", st.Origin)
	}
	job, ok := d.mgr.Get(st.ID)
	if !ok {
		t.Fatalf("job %q not registered", st.ID)
	}
	<-job.Done()

	var final JobStatus
	d.get(t, "/api/jobs/"+st.ID, http.StatusOK, &final)
	if final.State != JobDone {
		t.Fatalf("job state = %s (%s)", final.State, final.Error)
	}

	// The report endpoint serves exactly the canonical document bytes.
	resp, err = http.Get(d.http.URL + "/api/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var want bytes.Buffer
	if err := cannedDoc().RenderJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("report bytes differ from Document.RenderJSON:\n%s\nvs\n%s", got, want.Bytes())
	}

	// ?tables= filters by key.
	resp, err = http.Get(d.http.URL + "/api/jobs/" + st.ID + "/report?tables=nope")
	if err != nil {
		t.Fatal(err)
	}
	filtered, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	doc, err := report.DecodeDocument(bytes.NewReader(filtered))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Entries) != 0 {
		t.Fatalf("filter kept %d entries", len(doc.Entries))
	}
}

func TestSubmitRejections(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	d := newTestDaemon(t, func(ctx context.Context, job *Job) error {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil
	})
	post := func(body string) int {
		resp, err := http.Post(d.http.URL+"/api/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"scale": "galactic"}`); code != http.StatusBadRequest {
		t.Fatalf("bad scale = %d", code)
	}
	if code := post(`{"capture_dir": "/etc"}`); code != http.StatusBadRequest {
		t.Fatalf("capture_dir = %d", code)
	}
	if code := post(`{"bogus_field": 1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field = %d", code)
	}
	// Fill the single worker, then the queue (4); the next submission
	// must get 503.
	if code := post(`{}`); code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.mgr.Counts()[JobRunning] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		if code := post(`{}`); code != http.StatusAccepted {
			t.Fatalf("fill %d = %d", i, code)
		}
	}
	if code := post(`{}`); code != http.StatusServiceUnavailable {
		t.Fatalf("full queue = %d, want 503", code)
	}
}

func TestJobNotFoundAndReportNotReady(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	d := newTestDaemon(t, func(ctx context.Context, job *Job) error {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil
	})
	d.get(t, "/api/jobs/job-9999", http.StatusNotFound, nil)
	d.get(t, "/api/jobs/job-9999/report", http.StatusNotFound, nil)

	job, err := d.mgr.Submit(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	d.get(t, "/api/jobs/"+job.ID+"/report", http.StatusConflict, nil)
}

func tarArchive(t *testing.T, files map[string][]byte) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for name, data := range files {
		if err := tw.WriteHeader(&tar.Header{
			Name: name, Mode: 0o644, Size: int64(len(data)), Typeflag: tar.TypeReg,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestUploadQueuesIngestJob(t *testing.T) {
	d := newTestDaemon(t, nil)
	arch := tarArchive(t, map[string][]byte{
		"./camera-1/2026-03-01_00.00.00.pcap":   []byte("not a real pcap"),
		"./camera-1/2026-03-01_00.00.00.labels": []byte("labels"),
	})
	resp, err := http.Post(d.http.URL+"/api/upload?stream=1&strict=1", "application/x-tar", arch)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("upload = %d; body: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Origin != "upload" || !st.Ingesting {
		t.Fatalf("status = %+v", st)
	}
	job, _ := d.mgr.Get(st.ID)
	<-job.Done()
	if spec := job.Spec; !spec.Stream || !spec.Strict || !spec.RemoveDir {
		t.Fatalf("spec = %+v", spec)
	}
	// The retired two-pass shape's field is now an unknown field.
	resp, err = http.Post(d.http.URL+"/api/jobs", "application/json", strings.NewReader(`{"two_pass": true}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf(`{"two_pass": true} = %d, want 400`, resp.StatusCode)
	}
	if d.reg.Counter("uploads_total").Value() != 1 {
		t.Fatal("uploads_total not incremented")
	}
}

func TestUploadRejectsUselessArchive(t *testing.T) {
	d := newTestDaemon(t, nil)
	arch := tarArchive(t, map[string][]byte{"README.txt": []byte("nothing here")})
	resp, err := http.Post(d.http.URL+"/api/upload", "application/x-tar", arch)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty upload = %d, want 400", resp.StatusCode)
	}
}

func TestMetricsAndDashboard(t *testing.T) {
	d := newTestDaemon(t, nil)
	var snap map[string]any
	d.get(t, "/metrics", http.StatusOK, &snap)

	resp, err := http.Get(d.http.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(page, []byte("moniotrd")) {
		t.Fatalf("dashboard = %d, %d bytes", resp.StatusCode, len(page))
	}
	// Request instrumentation fired.
	if d.reg.Counter("http_requests_total").Value() < 2 {
		t.Fatal("http_requests_total not incremented")
	}
}

func TestSubmitWhileDrainingReturns503(t *testing.T) {
	d := newTestDaemon(t, nil)
	d.mgr.Shutdown(0)
	resp, err := http.Post(d.http.URL+"/api/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit = %d, want 503", resp.StatusCode)
	}
	var st DaemonStatus
	d.get(t, "/api/status", http.StatusOK, &st)
	if !st.Draining {
		t.Fatal("status does not report draining")
	}
}
