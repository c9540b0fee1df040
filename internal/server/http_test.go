package server

// HTTP surface tests, driven through httptest against Server.Handler:
// status codes (201 created / 202 queued with Retry-After / 409 rejected
// or bad transition / 404 unknown), JSON round-trips, and the health,
// metrics and per-job telemetry endpoints.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gist/internal/telemetry"
	"gist/internal/telemetry/promexport"
)

func httpJSON[T any](t *testing.T, client *http.Client, method, url string, body any, wantCode int) T {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s = %d, want %d (body %s)", method, url, resp.StatusCode, wantCode, raw)
	}
	var out T
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
	}
	return out
}

func TestHTTPSubmitLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Telemetry: telemetry.New()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	// Immediate admission answers 201 with the job's status.
	st := httpJSON[JobStatus](t, c, "POST", ts.URL+"/jobs",
		JobSpec{Name: "web", Batch: 4, Classes: 2, Steps: 6, Encoding: "fp16"}, http.StatusCreated)
	if st.ID == "" || st.Encoding != "fp16" {
		t.Fatalf("submit returned %+v", st)
	}

	waitFor(t, "job completed over HTTP", 10*time.Second, func() bool {
		got := httpJSON[JobStatus](t, c, "GET", ts.URL+"/jobs/"+st.ID, nil, http.StatusOK)
		return got.State == StateCompleted
	})

	list := httpJSON[[]JobStatus](t, c, "GET", ts.URL+"/jobs", nil, http.StatusOK)
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}

	h := httpJSON[Health](t, c, "GET", ts.URL+"/healthz", nil, http.StatusOK)
	if h.Jobs != 1 || h.BudgetBytes <= 0 {
		t.Fatalf("healthz = %+v", h)
	}
	if h.GoVersion == "" || h.Revision == "" {
		t.Fatalf("healthz missing build info: %+v", h)
	}

	// /metrics is Prometheus text exposition: correct media type, strictly
	// parseable, with the admission counter and the job's own series
	// labeled by job_id.
	scrape := func(path string) []promexport.Family {
		t.Helper()
		resp, err := c.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if got := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || got != contentTypeProm {
			t.Fatalf("%s: code %d, Content-Type %q, want 200 %q", path, resp.StatusCode, got, contentTypeProm)
		}
		fams, err := promexport.Parse(resp.Body)
		if err != nil {
			t.Fatalf("%s does not parse strictly: %v", path, err)
		}
		return fams
	}
	fams := scrape("/metrics")
	adm := promexport.Find(fams, "gist_server_jobs_admitted_total")
	if adm == nil || len(adm.Samples) == 0 || adm.Samples[0].Value < 1 {
		t.Fatalf("missing admission counter in exposition: %+v", adm)
	}
	steps := promexport.Find(fams, "gist_train_steps_total")
	if steps == nil {
		t.Fatal("missing per-job train.steps family")
	}
	if got, ok := steps.Get("job_id", st.ID); !ok || got.Value != 6 {
		t.Fatalf("per-job steps{job_id=%s} = %+v ok=%v, want 6", st.ID, got, ok)
	}

	// The per-job view is that job's slice of /metrics: every sample in it
	// appears in /metrics under the same labels with the same value (the
	// job is finished, so nothing moves between the scrapes). The fp16 run
	// exercised the encode pipeline, so the slice carries codec series.
	job := scrape("/jobs/" + st.ID + "/telemetry")
	if promexport.Find(job, "gist_codec_encode_bytes_total") == nil {
		t.Fatal("per-job telemetry has no codec encode series")
	}
	for _, f := range job {
		all := promexport.Find(fams, f.Name)
		if all == nil || all.Type != f.Type {
			t.Fatalf("family %s (%s) of the job view is not in /metrics", f.Name, f.Type)
		}
		for _, s := range f.Samples {
			if s.Labels["job_id"] != st.ID && f.Name != "gist_build_info" {
				t.Fatalf("%s%v: not labeled job_id=%s", f.Name, s.Labels, st.ID)
			}
			kv := make([]string, 0, 2*len(s.Labels))
			for k, v := range s.Labels {
				kv = append(kv, k, v)
			}
			if got, ok := all.Get(kv...); !ok || got.Value != s.Value {
				t.Fatalf("%s%v = %v in the job view, /metrics has %v (found %v)", f.Name, s.Labels, s.Value, got.Value, ok)
			}
		}
	}

	// The text snapshot route is gone.
	resp, err := c.Get(ts.URL + "/metrics/text")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics/text = %d, want 404", resp.StatusCode)
	}

	// Pausing a completed job is a 409; an unknown id is a 404.
	httpJSON[errorBody](t, c, "POST", ts.URL+"/jobs/"+st.ID+"/pause", nil, http.StatusConflict)
	httpJSON[errorBody](t, c, "GET", ts.URL+"/jobs/j9999", nil, http.StatusNotFound)
}

func TestHTTPQueueAndRejectCodes(t *testing.T) {
	s := newTestServer(t, Config{MaxRunning: 1, QueueLimit: 1, Telemetry: telemetry.New()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	blocker := httpJSON[JobStatus](t, c, "POST", ts.URL+"/jobs",
		JobSpec{Name: "block", Batch: 4, Classes: 2, Steps: 1 << 20}, http.StatusCreated)
	waitFor(t, "blocker running", 10*time.Second, func() bool {
		return httpJSON[JobStatus](t, c, "GET", ts.URL+"/jobs/"+blocker.ID, nil, http.StatusOK).State == StateRunning
	})

	// Queued admission answers 202 and carries a Retry-After hint.
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(JobSpec{Name: "q", Batch: 4, Classes: 2, Steps: 5})
	resp, err := c.Post(ts.URL+"/jobs", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var queued JobStatus
	_ = json.NewDecoder(resp.Body).Decode(&queued)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || queued.State != StateQueued {
		t.Fatalf("queued submit: code %d state %s", resp.StatusCode, queued.State)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("202 without Retry-After header")
	}

	// Past the queue limit the submission is rejected with 409.
	rej := httpJSON[JobStatus](t, c, "POST", ts.URL+"/jobs",
		JobSpec{Name: "bounced", Batch: 4, Classes: 2, Steps: 5}, http.StatusConflict)
	if rej.State != StateRejected {
		t.Fatalf("rejected submit state %s", rej.State)
	}

	// A malformed body is a 400.
	resp, err = c.Post(ts.URL+"/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec: code %d, want 400", resp.StatusCode)
	}

	// Cancel over HTTP answers the post-verb status.
	got := httpJSON[JobStatus](t, c, "POST", ts.URL+"/jobs/"+blocker.ID+"/cancel", nil, http.StatusOK)
	if got.State != StateCancelled && got.State != StateRunning {
		// The verb is async for running jobs; either the transition landed
		// already or the status still reads running. Wait for the terminal.
		t.Fatalf("post-cancel state %s", got.State)
	}
	waitFor(t, "blocker cancelled", 10*time.Second, func() bool {
		return httpJSON[JobStatus](t, c, "GET", ts.URL+"/jobs/"+blocker.ID, nil, http.StatusOK).State == StateCancelled
	})
}

// TestHTTPRejectsUnknownTechnique pins that a spec naming a technique the
// codec does not have — the removed "entropy" tier and "ssdc", a planning
// model only, among them — is a 400
// whose error lists the accepted names, and that no job is created.
func TestHTTPRejectsUnknownTechnique(t *testing.T) {
	s := newTestServer(t, Config{Telemetry: telemetry.New()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()
	for _, name := range []string{"entropy", "lzma", "ssdc"} {
		body := httpJSON[errorBody](t, c, "POST", ts.URL+"/jobs",
			JobSpec{Name: "bad", Batch: 4, Classes: 2, Steps: 2, Technique: name}, http.StatusBadRequest)
		if !strings.Contains(body.Error, `"`+name+`"`) || !strings.Contains(body.Error, "(want none|binarize|dpr|zvc|adaptive)") {
			t.Errorf("technique %q: error %q does not name it and the accepted set", name, body.Error)
		}
	}
	if jobs := s.List(); len(jobs) != 0 {
		t.Fatalf("rejected specs left %d jobs behind", len(jobs))
	}
}
