package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gist"
	"gist/internal/core"
	"gist/internal/server"
	"gist/internal/telemetry"
	"gist/internal/telemetry/promexport"
)

// serveRun carries what every epoch of one run of serve_mix shares.
type serveRun struct {
	specs   []server.JobSpec
	scrapes int
	workDir string
	// noneFootprint is the reservation admission makes for one
	// unencoded job; budget is sized from it.
	noneFootprint int64
	budget        int64
}

// plannedFootprint is the reservation admission makes for a tinycnn job
// under cfg: the plan's total plus the weights' gradients and momenta.
func plannedFootprint(cfg gist.Config) int64 {
	g := tinyCNN()
	return core.MustBuild(core.Request{Graph: g, Encodings: cfg}).TotalBytes + 2*g.WeightBytes()
}

func newServeRun(seed uint64, scale int, workDir string) *serveRun {
	r := &serveRun{
		specs:   jobMix(seed, max(serveJobs/scale, 8), max(serveJobSteps/scale, 10)),
		scrapes: max(serveScrapes/scale, 20),
		workDir: workDir,
	}
	// The budget (about 1.6 unencoded footprints) holds one unencoded job
	// beside one degraded to fp16 and never two unencoded ones, so nothing
	// is rejected, a second unencoded job queues, and one that may degrade
	// does.
	r.noneFootprint = plannedFootprint(gist.Config{})
	r.budget = r.noneFootprint + plannedFootprint(gist.LossyLossless(gist.FP16))
	return r
}

// jobTrace is the client's record of one job: when each stage of its life
// was observed from outside the server.
type jobTrace struct {
	id, tenant string
	client     int
	// posted -> accepted (POST returned) -> streamOpen (SSE headers in) ->
	// firstStep (first step event) -> done (state event).
	posted, accepted, streamOpen, firstStep, done time.Time
	queued, rejected, degraded, completed         bool
	footprint, heldBytes                          int64
	meanLoss                                      float64
	stepMS                                        []float64 // step_ns of every step event, as streamed
	refBefore, refAfter                           float64   // the yardstick, read by the client before POST and after the state event
	err                                           error
}

// serveEpoch is what one epoch of serve_mix measured.
type serveEpoch struct {
	setupS      float64
	setupCalS   float64 // setupS at nominal CPU speed
	jobs        []jobTrace
	drainWallS  float64
	allocs      float64
	liveHeap    int64
	scrapeMS    []float64
	scrapeBytes int
	scrapeErrs  int
	listMS      []float64
	health      server.Health
	serverSink  map[string]int64 // traced epochs only
	jobSinks    map[string]*telemetry.Sink
	scrapeSpans [][2]time.Time
}

// liveServer is one started server with its listener and client.
type liveServer struct {
	srv               *server.Server
	hs                *http.Server
	served            chan struct{}
	c                 *client
	sink              *telemetry.Sink
	dir               string
	setupS, setupCalS float64 // wall clock, and at nominal CPU speed
	health            server.Health
}

// start brings up a fresh server behind a real listener and waits for its
// first /healthz: the serve workload's set-up. traced attaches the
// server-level telemetry sink.
func (r *serveRun) start(traced bool) (*liveServer, error) {
	dir, err := os.MkdirTemp(r.workDir, "serve-")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{dir: dir, served: make(chan struct{})}
	if traced {
		ls.sink = telemetry.New()
	}
	ref := readYardstick()
	t0 := time.Now()
	ls.srv, err = server.New(server.Config{
		MemBudgetBytes: r.budget,
		MaxRunning:     serveClients,
		Workers:        0,
		CheckpointDir:  dir + "/ckpt",
		SpillDir:       dir + "/spill",
		Telemetry:      ls.sink,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = ls.srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	ls.hs = &http.Server{Handler: ls.srv.Handler()}
	go func() {
		defer close(ls.served)
		_ = ls.hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	ls.c = &client{base: "http://" + ln.Addr().String(), http: &http.Client{}}
	if err := ls.c.getJSON("/healthz", &ls.health); err != nil {
		_ = ls.stop()
		return nil, err
	}
	ls.setupS = time.Since(t0).Seconds()
	ls.setupCalS = calibrated(ls.setupS, ref, readYardstick())
	return ls, nil
}

// stop shuts the server and its listener down, waits for both, and removes
// the server's directories.
func (ls *liveServer) stop() error {
	ls.c.http.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.srv.Shutdown(ctx)
	if herr := ls.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	<-ls.served
	os.RemoveAll(ls.dir)
	return err
}

// epoch starts a fresh server, lets two closed-loop clients drain the job
// list, then scrapes /metrics with every job's sink still registered.
func (r *serveRun) epoch(traced bool) (ep serveEpoch, err error) {
	base := heapAfterGC()
	ls, err := r.start(traced)
	if err != nil {
		return ep, err
	}
	defer func() {
		if serr := ls.stop(); err == nil {
			err = serr
		}
	}()
	c, srv, sink := ls.c, ls.srv, ls.sink
	ep.setupS, ep.setupCalS = ls.setupS, ls.setupCalS

	// Drain: each client takes the next job off the shared list, submits
	// it, and follows its stream to the terminal state event. Between jobs
	// its slot is idle, so that is where it reads the yardstick.
	ep.jobs = make([]jobTrace, len(r.specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for ci := 0; ci < serveClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			ref := readYardstick()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(r.specs) {
					return
				}
				ep.jobs[i] = c.runJob(r.specs[i])
				after := readYardstick()
				ep.jobs[i].client, ep.jobs[i].refBefore, ep.jobs[i].refAfter = ci, ref, after
				ref = after
			}
		}(ci)
	}
	wg.Wait()
	ep.drainWallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	ep.allocs = float64(after.Mallocs - before.Mallocs)

	for i := 0; i < r.scrapes; i++ {
		t := time.Now()
		body, err := c.get("/metrics")
		end := time.Now()
		if err == nil {
			_, err = promexport.Parse(bytes.NewReader(body))
		}
		if err != nil {
			ep.scrapeErrs++
			continue
		}
		ep.scrapeMS = append(ep.scrapeMS, ms(end.Sub(t).Nanoseconds()))
		ep.scrapeSpans = append(ep.scrapeSpans, [2]time.Time{t, end})
		ep.scrapeBytes = len(body)
	}
	for i := 0; i < 20; i++ {
		t := time.Now()
		if _, err := c.get("/jobs"); err != nil {
			return ep, err
		}
		ep.listMS = append(ep.listMS, ms(time.Since(t).Nanoseconds()))
	}
	if err := c.getJSON("/healthz", &ep.health); err != nil {
		return ep, err
	}
	c.http.CloseIdleConnections()
	ep.liveHeap = heapAfterGC() - base
	ep.serverSink = sink.Values()
	ep.jobSinks = map[string]*telemetry.Sink{}
	for _, j := range ep.jobs {
		if s, err := srv.JobTelemetry(j.id); err == nil {
			ep.jobSinks[j.id] = s
		}
	}
	return ep, nil
}

// client is the benchmark's HTTP client: plain requests plus one SSE reader
// per outstanding job.
type client struct {
	base string
	http *http.Client
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

func (c *client) getJSON(path string, v any) error {
	body, err := c.get(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// runJob submits one job and follows it to its terminal state.
func (c *client) runJob(spec server.JobSpec) (jt jobTrace) {
	jt.tenant = spec.Tenant
	payload, err := json.Marshal(spec)
	if err != nil {
		jt.err = err
		return jt
	}
	jt.posted = time.Now()
	resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		jt.err = err
		return jt
	}
	var st server.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	jt.accepted = time.Now()
	if err != nil {
		jt.err = fmt.Errorf("POST /jobs: %s: %w", resp.Status, err)
		return jt
	}
	jt.id, jt.footprint = st.ID, st.FootprintBytes
	switch resp.StatusCode {
	case http.StatusCreated:
	case http.StatusAccepted:
		jt.queued = true
	default:
		jt.rejected = st.State == server.StateRejected
		jt.err = fmt.Errorf("POST /jobs: %s (%s %s)", resp.Status, st.State, st.Reason)
		return jt
	}

	stream, err := c.http.Get(c.base + "/jobs/" + st.ID + "/stream")
	if err != nil {
		jt.err = err
		return jt
	}
	defer stream.Body.Close()
	jt.streamOpen = time.Now()
	if stream.StatusCode != http.StatusOK {
		jt.err = fmt.Errorf("GET stream: %s", stream.Status)
		return jt
	}
	var event string
	var lossSum float64
	var events int
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: ") && event == "step":
			var ev server.StreamEvent
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				jt.err = err
				return jt
			}
			if events == 0 {
				jt.firstStep = time.Now()
			}
			jt.heldBytes = ev.HeldBytes
			if ev.StepNS > 0 {
				jt.stepMS = append(jt.stepMS, ms(ev.StepNS))
			}
			lossSum += ev.Loss
			events++
		case strings.HasPrefix(line, "data: ") && event == "state":
			var final server.JobStatus
			if err := json.Unmarshal([]byte(line[len("data: "):]), &final); err != nil {
				jt.err = err
				return jt
			}
			jt.done = time.Now()
			jt.degraded = final.Degraded
			jt.completed = final.State == server.StateCompleted && final.Step == spec.Steps
			if !jt.completed {
				jt.err = fmt.Errorf("job %s ended %s at step %d/%d: %s", st.ID, final.State, final.Step, spec.Steps, final.Reason)
			}
			jt.meanLoss = ratio(lossSum, float64(events))
			return jt
		}
	}
	jt.err = fmt.Errorf("job %s: stream ended without a state event: %v", st.ID, sc.Err())
	return jt
}

// spans turns the epoch's client-side timestamps into job -> {submit,
// stream_open, first_step, run} and scrape spans keyed by job id.
func (ep *serveEpoch) spans(rec *recorder) {
	for _, j := range ep.jobs {
		if j.err != nil || j.firstStep.IsZero() {
			continue
		}
		track := j.client + 1
		job := rec.add(-1, "job", j.id, track, j.posted, j.done)
		rec.add(job, "submit", j.id, track, j.posted, j.accepted)
		rec.add(job, "stream_open", j.id, track, j.accepted, j.streamOpen)
		rec.add(job, "first_step", j.id, track, j.streamOpen, j.firstStep)
		rec.add(job, "run", j.id, track, j.firstStep, j.done)
	}
	for i, s := range ep.scrapeSpans {
		rec.add(-1, "scrape", fmt.Sprintf("scrape-%d", i), 0, s[0], s[1])
	}
}
