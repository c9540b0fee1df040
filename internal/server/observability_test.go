package server

// Observability tests: the SSE step stream over real HTTP (every step
// completed while subscribed arrives, the final state event closes the
// stream, and no goroutines leak), slow-consumer drop accounting, and the
// flight recorder (a quarantined job under fault injection leaves a JSON
// dump whose fault events match the injector's telemetry counters, and
// DumpFlightRecords snapshots every job on demand).

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"gist/internal/faults"
	"gist/internal/telemetry"
	"gist/internal/telemetry/flightrec"
)

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	event string
	data  string
}

// readSSE consumes a text/event-stream body until EOF.
func readSSE(t *testing.T, body *bufio.Scanner) []sseEvent {
	t.Helper()
	var out []sseEvent
	cur := sseEvent{}
	for body.Scan() {
		line := body.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				out = append(out, cur)
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return out
}

func TestSSEStreamOverHTTP(t *testing.T) {
	// Gate the job at its first step until the SSE client is attached, so
	// every later step is published to a live subscriber.
	release := make(chan struct{})
	s := newTestServer(t, Config{
		Telemetry: telemetry.New(),
		OnStep: func(ctx context.Context, id string, step int) {
			if step == 1 {
				select {
				case <-release:
				case <-ctx.Done():
				}
			}
		},
	})
	baseline := runtime.NumGoroutine()

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	st := httpJSON[JobStatus](t, c, "POST", ts.URL+"/jobs",
		JobSpec{Name: "sse", Batch: 4, Classes: 2, Steps: 8, Encoding: "fp16"}, http.StatusCreated)

	resp, err := c.Get(ts.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", got)
	}
	close(release)

	events := readSSE(t, bufio.NewScanner(resp.Body))
	if len(events) == 0 {
		t.Fatal("no SSE events received")
	}
	last := events[len(events)-1]
	if last.event != "state" {
		t.Fatalf("stream must end with a state event, got %q", last.event)
	}
	var final JobStatus
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatalf("final state event is not a JobStatus: %v", err)
	}
	if final.State != StateCompleted || final.Step != 8 {
		t.Fatalf("final state = %s step %d, want completed/8", final.State, final.Step)
	}

	// Every step completed while subscribed produced at least one event.
	// Step 1 may have finished before the subscription attached; 2..8 were
	// gated behind it.
	steps := map[int]bool{}
	maxStep := 0
	for _, ev := range events[:len(events)-1] {
		if ev.event != "step" {
			t.Fatalf("unexpected event type %q", ev.event)
		}
		var se StreamEvent
		if err := json.Unmarshal([]byte(ev.data), &se); err != nil {
			t.Fatalf("step event is not a StreamEvent: %v (%s)", err, ev.data)
		}
		if se.Job != st.ID || se.State != StateRunning {
			t.Fatalf("step event %+v", se)
		}
		steps[se.Step] = true
		if se.Step > maxStep {
			maxStep = se.Step
		}
	}
	for want := 2; want <= 8; want++ {
		if !steps[want] {
			t.Errorf("no step event for step %d (got %v)", want, steps)
		}
	}
	// The fp16 run carries memory samples, so ratio data rides the stream.
	var sawRatio bool
	for _, ev := range events[:len(events)-1] {
		var se StreamEvent
		_ = json.Unmarshal([]byte(ev.data), &se)
		if se.HeldBytes > 0 && se.Ratio > 0 {
			sawRatio = true
		}
	}
	if !sawRatio {
		t.Error("no step event carried compression data")
	}

	// No goroutines may survive the stream teardown.
	resp.Body.Close()
	ts.Close()
	waitFor(t, "goroutines to settle after SSE", 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}

func TestSSESlowConsumerDrops(t *testing.T) {
	sink := telemetry.New()
	s := newTestServer(t, Config{Telemetry: sink})

	st, err := s.Submit(JobSpec{Name: "slow", Batch: 4, Classes: 2, Steps: 20})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := s.Subscribe(st.ID, 1) // 1-deep buffer, never read: everything past the first drops
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	<-sub.Done

	if got := sub.Dropped(); got == 0 {
		t.Error("slow consumer reported zero drops after 20 steps into a 1-deep buffer")
	}
	if got := sink.Counter("server.sse.dropped").Value(); got == 0 {
		t.Error("server.sse.dropped counter stayed zero")
	}
	// The buffered event is still deliverable after Done.
	select {
	case ev := <-sub.C:
		if ev.Job != st.ID {
			t.Errorf("buffered event %+v", ev)
		}
	default:
		t.Error("no buffered event survived")
	}

	// Unknown jobs cannot be subscribed to.
	if _, err := s.Subscribe("j9999", 0); err == nil {
		t.Error("Subscribe(unknown) must fail")
	}
}

func TestFlightRecorderQuarantineDump(t *testing.T) {
	dir := t.TempDir()
	sink := telemetry.New()
	s := newTestServer(t, Config{
		Telemetry:       sink,
		FlightRecDir:    dir,
		FlightRecEvents: 4096, // larger than any event volume here: nothing evicted
		StallTimeout:    150 * time.Millisecond,
		WatchdogEvery:   10 * time.Millisecond,
		OnStep: func(ctx context.Context, id string, step int) {
			if step >= 3 {
				<-ctx.Done() // stall after three real steps
			}
		},
	})

	st, err := s.Submit(JobSpec{
		Name: "doomed", Batch: 4, Classes: 2, Steps: 1 << 20,
		Encoding: "lossless", MaxRetries: 20,
		Faults: &faults.Config{Seed: 7, EncodeFailRate: 0.3, DecodeFailRate: 0.2, BitFlipRate: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	if got := mustStatus(t, s, st.ID); got.State != StateQuarantined {
		t.Fatalf("state = %s, want quarantined", got.State)
	}

	// Wait guarantees the dump exists: it is written before the terminal
	// transition.
	path := filepath.Join(dir, st.ID+".flightrec.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("flight record missing: %v", err)
	}
	var dump flightrec.Dump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("flight record is not valid JSON: %v", err)
	}
	if !strings.Contains(dump.Reason, string(StateQuarantined)) {
		t.Errorf("dump reason %q does not name the quarantine", dump.Reason)
	}
	if len(dump.Events) == 0 || dump.EventsTotal == 0 {
		t.Fatal("dump carries no events")
	}

	// Meta: final job status, admission ledger, recovery report.
	var meta struct {
		Job      *JobStatus `json:"job"`
		Ledger   Health     `json:"ledger"`
		Recovery *struct {
			Retries int `json:"Retries"`
		} `json:"recovery"`
	}
	var outer struct {
		Meta json.RawMessage `json:"meta"`
	}
	if err := json.Unmarshal(raw, &outer); err != nil || outer.Meta == nil {
		t.Fatalf("dump has no meta block: %v", err)
	}
	if err := json.Unmarshal(outer.Meta, &meta); err != nil {
		t.Fatalf("meta does not decode: %v", err)
	}
	if meta.Job == nil || meta.Job.State != StateQuarantined || meta.Job.ID != st.ID {
		t.Fatalf("meta.job = %+v", meta.Job)
	}
	if meta.Ledger.BudgetBytes <= 0 {
		t.Errorf("meta.ledger = %+v", meta.Ledger)
	}
	if meta.Recovery == nil || meta.Recovery.Retries == 0 {
		t.Errorf("meta.recovery = %+v, want a report with retries (faults were injected)", meta.Recovery)
	}

	// The ring's fault instants must match the injector's own telemetry
	// counters exactly — the dump did not lose or invent events.
	tel, err := s.JobTelemetry(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	perKind := map[string]int64{}
	for _, ev := range dump.Events {
		if ev.Kind == "instant" && ev.Cat == "faults" {
			perKind[ev.Name]++
		}
	}
	total := int64(0)
	for kind, n := range perKind {
		total += n
		if got := tel.Counter("faults.injected." + kind).Value(); got != n {
			t.Errorf("dump has %d %q fault events, injector counter says %d", n, kind, got)
		}
	}
	if total == 0 {
		t.Error("no injected-fault instants in the dump (rates were set high; seed is fixed)")
	}

	// DumpFlightRecords (the SIGQUIT path) snapshots every recorded job.
	if n := s.DumpFlightRecords("sigquit"); n < 1 {
		t.Fatalf("DumpFlightRecords wrote %d dumps, want >= 1", n)
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("sigquit dump invalid: %v", err)
	}
	if dump.Reason != "sigquit" {
		t.Errorf("sigquit dump reason %q", dump.Reason)
	}
	if got := sink.Counter("server.flightrec.dumps").Value(); got < 2 {
		t.Errorf("flightrec dump counter = %d, want >= 2", got)
	}

	// A sharded job runs the same recoverable loop, so its dump carries a
	// recovery report too (it used to carry none).
	st, err = s.Submit(JobSpec{Name: "doomed-sharded", Batch: 4, Classes: 2, Steps: 1 << 20, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(filepath.Join(dir, st.ID+".flightrec.json"))
	if err != nil {
		t.Fatalf("sharded job's flight record missing: %v", err)
	}
	var sharded struct {
		Meta struct {
			Recovery *struct{ Steps int }
		}
	}
	if err := json.Unmarshal(raw, &sharded); err != nil {
		t.Fatal(err)
	}
	if rec := sharded.Meta.Recovery; rec == nil || rec.Steps != 3 {
		t.Errorf("sharded meta.recovery = %+v, want a report of the 3 steps before the stall", rec)
	}
}

func TestNoFlightRecorderWithoutDir(t *testing.T) {
	s := newTestServer(t, Config{})
	st, err := s.Submit(JobSpec{Name: "ok", Batch: 4, Classes: 2, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	if n := s.DumpFlightRecords("sigquit"); n != 0 {
		t.Fatalf("dumps written with no FlightRecDir: %d", n)
	}
}
