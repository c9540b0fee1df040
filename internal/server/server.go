package server

// The job server core: admission, fair scheduling, the per-job training
// goroutine, the watchdog, and graceful shutdown.
//
// Concurrency model: one mutex guards the server's tables (jobs, queue,
// running set, memory ledger). Each running job gets its own goroutine
// and a context.WithCancelCause; pause, user cancel, watchdog quarantine
// and shutdown are all just cancellations with distinct sentinel causes,
// classified once when the training loop returns. The training engines
// poll that context at step phase boundaries, so every teardown path —
// however it was triggered — exits within one step's latency with pooled
// buffers released.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/parallel"
	"gist/internal/telemetry"
	"gist/internal/telemetry/flightrec"
	"gist/internal/telemetry/promexport"
	"gist/internal/train"
)

// Sentinel cancellation causes. The training goroutine classifies the
// context's cause into the job's terminal (or paused) state.
var (
	errPaused     = errors.New("server: job paused")
	errStalled    = errors.New("server: job stalled")
	errShutdown   = errors.New("server: shutting down")
	errUserCancel = errors.New("server: cancelled by user")
)

// ErrUnknownJob reports an id no job was ever submitted under.
var ErrUnknownJob = errors.New("server: unknown job")

// ErrBadTransition reports a lifecycle verb applied in the wrong state
// (e.g. resuming a running job).
var ErrBadTransition = errors.New("server: invalid state transition")

// Config tunes the server. The zero value gets sane defaults from New.
type Config struct {
	// MemBudgetBytes is the global admission budget every concurrently
	// held job footprint must fit under (default 1 GiB).
	MemBudgetBytes int64
	// MaxRunning caps concurrently training jobs (default 4).
	MaxRunning int
	// QueueLimit caps the admission queue; past it new jobs are rejected
	// (default 64).
	QueueLimit int
	// StallTimeout quarantines a running job that completes no step for
	// this long (default 30s). WatchdogEvery is the scan interval
	// (default StallTimeout/4, at most 1s).
	StallTimeout  time.Duration
	WatchdogEvery time.Duration
	// CheckpointDir holds per-job checkpoints (default: a fresh temp
	// dir). CheckpointEvery is the default periodic checkpoint interval
	// in steps (default 25).
	CheckpointDir   string
	CheckpointEvery int
	// SpillDir holds the stash stores' spill files for jobs that set a
	// StashBudget (default: the checkpoint dir). StashBudget, when
	// positive, is the default per-job hot-tier cap applied to specs that
	// set none.
	SpillDir    string
	StashBudget int64
	// Workers sizes a codec worker pool all jobs share, whose helpers
	// Shutdown stops once every job is done. 0 gives the jobs no pool of
	// their own: their codecs fall back to the process-wide
	// parallel.Shared() pool, which has GOMAXPROCS workers.
	Workers int
	// Telemetry, when non-nil, receives server-level counters (jobs
	// admitted/rejected/degraded/quarantined, queue depth, used bytes).
	Telemetry *telemetry.Sink
	// OnStep, when non-nil, runs after every completed step of every job
	// on that job's training goroutine — the soak harness's chaos hook.
	// Blocking here stalls the job (which is exactly what the watchdog
	// tests want); honor ctx to unblock.
	OnStep func(ctx context.Context, jobID string, step int)
	// FlightRecDir, when set, arms a per-job flight recorder: the last
	// FlightRecEvents telemetry events are dumped there as JSON when a
	// job fails, stalls into quarantine, or misses its deadline (and on
	// demand via DumpFlightRecords). FlightRecEvents defaults to
	// flightrec.DefaultEvents.
	FlightRecDir    string
	FlightRecEvents int
}

func (c Config) withDefaults() Config {
	if c.MemBudgetBytes <= 0 {
		c.MemBudgetBytes = 1 << 30
	}
	if c.MaxRunning <= 0 {
		c.MaxRunning = 4
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 30 * time.Second
	}
	if c.WatchdogEvery <= 0 {
		c.WatchdogEvery = min(c.StallTimeout/4, time.Second)
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 25
	}
	return c
}

// Server is a multi-tenant training job server. Construct with New,
// submit jobs with Submit, and stop with Shutdown.
type Server struct {
	cfg     Config
	pool    *bufpool.Pool  // buffer pool shared by every job
	workers *parallel.Pool // codec worker pool shared by every job (nil = inline)

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // submission order, for List
	queue   []*job
	running map[string]*job
	seq     int
	used    int64 // sum of running job footprints
	peak    int64 // high-water mark of used
	closed  bool

	// plans memoizes every plan admission prices (admission.go); it has
	// its own lock, because Submit prices outside mu.
	plans planMemo

	wg           sync.WaitGroup // training goroutines
	watchdogDone chan struct{}

	started time.Time

	admitted    *telemetry.Counter
	rejected    *telemetry.Counter
	degraded    *telemetry.Counter
	quarantined *telemetry.Counter
	usedGauge   *telemetry.Gauge
	queueGauge  *telemetry.Gauge
	sseDropped  *telemetry.Counter
	flightDumps *telemetry.Counter

	// reg aggregates the server sink plus every job sink (labeled by
	// job_id/tenant) into the Prometheus /metrics exposition.
	reg *promexport.Registry
}

// New builds and starts a server (its watchdog runs until Shutdown).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.CheckpointDir == "" {
		dir, err := os.MkdirTemp("", "gistserve-ckpt-")
		if err != nil {
			return nil, err
		}
		cfg.CheckpointDir = dir
	} else if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
		return nil, err
	}
	if cfg.SpillDir == "" {
		cfg.SpillDir = cfg.CheckpointDir
	} else if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
		return nil, err
	}
	if cfg.FlightRecDir != "" {
		if err := os.MkdirAll(cfg.FlightRecDir, 0o755); err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:          cfg,
		pool:         bufpool.New(),
		jobs:         map[string]*job{},
		running:      map[string]*job{},
		watchdogDone: make(chan struct{}),
		started:      time.Now(),
	}
	if cfg.Workers > 0 {
		s.workers = parallel.NewPool(cfg.Workers)
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.admitted = cfg.Telemetry.Counter("server.jobs.admitted")
	s.rejected = cfg.Telemetry.Counter("server.jobs.rejected")
	s.degraded = cfg.Telemetry.Counter("server.jobs.degraded")
	s.quarantined = cfg.Telemetry.Counter("server.jobs.quarantined")
	s.usedGauge = cfg.Telemetry.Gauge("server.mem.used_bytes")
	s.queueGauge = cfg.Telemetry.Gauge("server.queue.depth")
	s.sseDropped = cfg.Telemetry.Counter("server.sse.dropped")
	s.flightDumps = cfg.Telemetry.Counter("server.flightrec.dumps")
	s.reg = promexport.NewRegistry()
	s.reg.Register(cfg.Telemetry)
	go s.watchdog()
	return s, nil
}

// Submit admits a job: it is started immediately when its predicted
// footprint fits the free budget and a slot is open, queued with a
// backoff hint when it fits the total budget but not right now, and
// rejected (terminal) when it cannot fit even fully degraded or the
// queue is full. The returned status reports the outcome; err is non-nil
// only for malformed specs.
func (s *Server) Submit(spec JobSpec) (*JobStatus, error) {
	spec = spec.withDefaults()
	if spec.StashBudget <= 0 {
		spec.StashBudget = s.cfg.StashBudget
	}
	// Validate and plan against the whole budget before taking the lock:
	// a job that cannot fit an empty server is rejected outright.
	enc, fp, fits, err := planAdmission(&s.plans, spec, spec.Encoding, s.cfg.MemBudgetBytes)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errShutdown
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("j%04d", s.seq),
		seq:       s.seq,
		spec:      spec,
		state:     StateQueued,
		enc:       enc,
		footprint: fp,
		submitted: time.Now(),
		tel:       telemetry.New(),
		done:      make(chan struct{}),
	}
	if spec.DeadlineMS > 0 {
		j.deadline = j.submitted.Add(time.Duration(spec.DeadlineMS) * time.Millisecond)
	}
	if s.cfg.FlightRecDir != "" {
		j.rec = flightrec.New(s.cfg.FlightRecEvents)
		j.tel.SetObserver(j.rec)
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.reg.Register(j.tel, j.labels()...)

	switch {
	case !fits:
		s.rejected.Inc()
		s.mu.Unlock()
		j.setState(StateRejected, fmt.Sprintf(
			"footprint %d bytes exceeds budget %d even at maximum degradation", fp, s.cfg.MemBudgetBytes))
		return s.statusOf(j), nil
	case len(s.queue) >= s.cfg.QueueLimit:
		s.rejected.Inc()
		s.mu.Unlock()
		j.setState(StateRejected, fmt.Sprintf("admission queue full (%d jobs)", s.cfg.QueueLimit))
		return s.statusOf(j), nil
	}
	if enc != spec.Encoding {
		s.degraded.Inc()
	}
	s.admitted.Inc()
	s.queue = append(s.queue, j)
	s.queueGauge.Set(int64(len(s.queue)))
	s.pumpLocked()
	s.mu.Unlock()
	return s.statusOf(j), nil
}

// pumpLocked starts every queued job that now fits, fairly: candidates
// are ordered by their tenant's running-job count (fewest first) and
// then FIFO, and the whole queue is scanned so a large job at the head
// cannot block a small one behind it (no head-of-line blocking). Queued
// jobs past their deadline are cancelled; under pressure, a queued job
// that opted into degradation is re-planned at a higher-compression
// encoding against the currently free budget — starting degraded beats
// waiting. Callers hold s.mu.
func (s *Server) pumpLocked() {
	if s.closed {
		return
	}
	// Expire queued deadlines first: a full server must not pin an
	// already-dead job in the queue until a slot happens to free.
	now := time.Now()
	for _, j := range append([]*job(nil), s.queue...) {
		if !j.deadline.IsZero() && now.After(j.deadline) {
			s.dropFromQueue(j)
			j.setState(StateCancelled, "deadline exceeded before start")
		}
	}
	for {
		if len(s.running) >= s.cfg.MaxRunning || len(s.queue) == 0 {
			return
		}
		perTenant := map[string]int{}
		for _, j := range s.running {
			perTenant[j.spec.Tenant]++
		}
		order := append([]*job(nil), s.queue...)
		sort.SliceStable(order, func(a, b int) bool {
			ra, rb := perTenant[order[a].spec.Tenant], perTenant[order[b].spec.Tenant]
			if ra != rb {
				return ra < rb
			}
			return order[a].seq < order[b].seq
		})
		started := false
		for _, j := range order {
			if len(s.running) >= s.cfg.MaxRunning {
				break
			}
			free := s.cfg.MemBudgetBytes - s.used
			j.mu.Lock()
			enc, fp := j.enc, j.footprint
			j.mu.Unlock()
			if fp > free {
				// Re-plan at a harder compression against what is free
				// right now (AllowDegrade only).
				denc, dfp, ok, err := planAdmission(&s.plans, j.spec, enc, free)
				if err != nil || !ok {
					continue
				}
				j.mu.Lock()
				j.enc, j.footprint = denc, dfp
				j.mu.Unlock()
				enc, fp = denc, dfp
				s.degraded.Inc()
			}
			s.dropFromQueue(j)
			s.startLocked(j)
			started = true
			break
		}
		if !started {
			return
		}
	}
}

// dropFromQueue removes j from the queue slice. Callers hold s.mu.
func (s *Server) dropFromQueue(j *job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	s.queueGauge.Set(int64(len(s.queue)))
}

// startLocked reserves j's footprint, binds its cancellation, and
// launches its training goroutine. The cancel func is installed before
// the goroutine exists, so Cancel/Pause can never observe a running job
// without a cancel hook. Callers hold s.mu.
func (s *Server) startLocked(j *job) {
	s.used += j.footprint
	if s.used > s.peak {
		s.peak = s.used
	}
	s.usedGauge.Set(s.used)
	s.running[j.id] = j
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	j.setState(StateRunning, "")
	j.progress.Store(time.Now().UnixNano())
	s.wg.Add(1)
	go s.runJob(j, ctx, cancel)
}

// runJob drives one job's training lifecycle on its own goroutine:
// trains under the cancellable (and possibly deadlined) context,
// classifies the exit, releases the reservation and wakes the scheduler.
func (s *Server) runJob(j *job, ctx context.Context, cancel context.CancelCauseFunc) {
	defer s.wg.Done()
	defer cancel(nil)
	if !j.deadline.IsZero() {
		dctx, dcancel := context.WithDeadline(ctx, j.deadline)
		defer dcancel()
		ctx = dctx
	}

	state, reason := s.train(ctx, j)

	s.mu.Lock()
	delete(s.running, j.id)
	s.used -= j.footprint
	s.usedGauge.Set(s.used)
	closed := s.closed
	s.mu.Unlock()

	if state == StatePaused {
		if closed {
			// A pause that raced shutdown still ends terminal.
			j.setState(StateCancelled, "server shutdown")
		} else {
			j.mu.Lock()
			if !j.state.Terminal() {
				j.state, j.reason = StatePaused, reason
			}
			j.mu.Unlock()
		}
	} else {
		if state == StateQuarantined {
			s.quarantined.Inc()
		}
		// Dump before the terminal transition so anyone unblocked by Wait
		// already finds the flight record on disk.
		if shouldDump(state, reason) {
			s.dumpFlightRecord(j, state, reason)
		}
		j.setState(state, reason)
	}
	s.mu.Lock()
	s.pumpLocked()
	s.mu.Unlock()
}

// train builds the job's engine and runs it to an exit, returning the
// state the exit classifies to. Pause/stall exits persist a checkpoint
// first so the job can resume (or be post-mortemed) byte-identically.
func (s *Server) train(ctx context.Context, j *job) (State, string) {
	spec := j.spec
	j.mu.Lock()
	encName := j.enc
	resumeFrom := j.ckpt
	j.mu.Unlock()

	cfg, err := jobConfig(spec, encName)
	if err != nil {
		return StateFailed, err.Error()
	}
	g, err := buildNet(spec)
	if err != nil {
		return StateFailed, err.Error()
	}
	var analysis *encoding.Analysis
	if cfg.Enabled() {
		analysis = encoding.Analyze(g, cfg)
	}
	opts := train.Options{
		Seed:        spec.Seed,
		Encodings:   analysis,
		Telemetry:   j.tel,
		Codec:       &encoding.Codec{Pool: s.workers, Tel: j.tel},
		Pool:        s.pool,
		StashBudget: spec.StashBudget,
		SpillDir:    s.cfg.SpillDir,
	}
	if spec.Faults != nil {
		opts.Faults = faults.New(*spec.Faults)
		opts.Integrity = true
	}

	ch, size := inputGeom(spec)
	d := train.NewDataset(spec.Classes, ch, size, 0.3, spec.Seed)

	ckptEvery := spec.CheckpointEvery
	if ckptEvery <= 0 {
		ckptEvery = s.cfg.CheckpointEvery
	}
	ckptPath := filepath.Join(s.cfg.CheckpointDir, j.id+".ckpt")

	var rcfg train.ReplicaConfig
	if spec.Shards > 1 {
		rcfg = train.ReplicaConfig{Replicas: spec.Shards, Shards: spec.Shards, MaxRetries: spec.MaxRetries}
	}
	en := train.NewEngine(g, opts, rcfg)
	defer en.Close()
	lead := en.Executors()[0] // checkpoints are written from, and resume at, replica 0
	if resumeFrom != "" {
		if err := train.LoadCheckpointFile(en, resumeFrom); err != nil {
			return StateFailed, fmt.Sprintf("resume: %v", err)
		}
		d.Skip(en.Batch(), lead.ResumeStep())
		j.step.Store(int64(lead.ResumeStep()))
	}

	runCfg := train.RunConfig{
		Minibatch: en.Batch(),
		Steps:     spec.Steps,
		LR:        float32(spec.LR),
		OnStep: func(step int, loss float64) {
			j.step.Store(int64(step))
			j.lossBits.Store(math.Float64bits(loss))
			j.progress.Store(time.Now().UnixNano())
			s.publishStep(j, step, loss)
			if s.cfg.OnStep != nil {
				s.cfg.OnStep(ctx, j.id, step)
			}
		},
	}
	_, report, runErr := train.RunRecoverable(ctx, en, d, runCfg, train.RecoveryConfig{
		MaxRetries:      spec.MaxRetries,
		CheckpointPath:  ckptPath,
		CheckpointEvery: ckptEvery,
	})
	j.setReport(report)
	if report.CheckpointSaves > 0 {
		j.setCkpt(ckptPath)
	}

	cause := context.Cause(ctx)
	switch {
	case runErr == nil:
		return StateCompleted, ""
	case errors.Is(cause, errPaused):
		if err := lead.SaveCheckpointFile(ckptPath); err != nil {
			return StateFailed, fmt.Sprintf("pause checkpoint: %v", err)
		}
		j.setCkpt(ckptPath)
		return StatePaused, "paused by user"
	case errors.Is(cause, errStalled):
		// Best-effort post-mortem checkpoint; the engine state was rolled
		// back to the last completed step.
		if lead.SaveCheckpointFile(ckptPath) == nil {
			j.setCkpt(ckptPath)
		}
		return StateQuarantined, cause.Error()
	case errors.Is(runErr, context.DeadlineExceeded) || errors.Is(cause, context.DeadlineExceeded):
		return StateCancelled, "deadline exceeded"
	case errors.Is(cause, errShutdown):
		return StateCancelled, "server shutdown"
	case errors.Is(cause, errUserCancel):
		return StateCancelled, "cancelled by user"
	case errors.Is(runErr, context.Canceled):
		return StateCancelled, "cancelled"
	default:
		return StateFailed, runErr.Error()
	}
}

// Cancel stops a job in any non-terminal state: a queued or paused job
// goes terminal immediately; a running one is cancelled and classified
// by its goroutine. Cancelling a terminal job is a no-op.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	s.dropFromQueue(j)
	s.mu.Unlock()

	j.mu.Lock()
	state, cancel := j.state, j.cancel
	j.mu.Unlock()
	switch state {
	case StateRunning:
		if cancel != nil {
			cancel(errUserCancel)
		}
	case StateQueued, StatePaused:
		j.setState(StateCancelled, "cancelled by user")
		s.mu.Lock()
		s.pumpLocked()
		s.mu.Unlock()
	}
	return nil
}

// Pause checkpoints a running job and releases its budget and slot; the
// job parks in StatePaused until Resume or Cancel.
func (s *Server) Pause(id string) error {
	j, err := s.lookup(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	state, cancel := j.state, j.cancel
	j.mu.Unlock()
	if state != StateRunning || cancel == nil {
		return fmt.Errorf("%w: pause in state %s", ErrBadTransition, state)
	}
	cancel(errPaused)
	return nil
}

// Resume re-admits a paused job: it rejoins the queue (at its already
// chosen encoding and footprint) and restarts from its checkpoint,
// byte-identical to a run that was never paused.
func (s *Server) Resume(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if s.closed {
		return errShutdown
	}
	j.mu.Lock()
	state := j.state
	if state == StatePaused {
		j.state, j.reason = StateQueued, ""
	}
	j.mu.Unlock()
	if state != StatePaused {
		return fmt.Errorf("%w: resume in state %s", ErrBadTransition, state)
	}
	s.queue = append(s.queue, j)
	s.queueGauge.Set(int64(len(s.queue)))
	s.pumpLocked()
	return nil
}

// statusOf renders a job's status, attaching the queue backoff hint.
func (s *Server) statusOf(j *job) *JobStatus {
	st := j.status()
	if st.State == StateQueued {
		s.mu.Lock()
		pos := len(s.queue)
		for i, q := range s.queue {
			if q == j {
				pos = i
				break
			}
		}
		s.mu.Unlock()
		st.RetryAfterMS = int64(pos+1) * 100
	}
	return st
}

// lookup returns the job submitted under id.
func (s *Server) lookup(id string) (*job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j, nil
}

// Get returns a job's status.
func (s *Server) Get(id string) (*JobStatus, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	return s.statusOf(j), nil
}

// List returns every job's status in submission order.
func (s *Server) List() []*JobStatus {
	s.mu.Lock()
	js := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		js = append(js, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]*JobStatus, len(js))
	for i, j := range js {
		out[i] = s.statusOf(j)
	}
	return out
}

// JobTelemetry returns a job's telemetry sink.
func (s *Server) JobTelemetry(id string) (*telemetry.Sink, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	return j.tel, nil
}

// Wait blocks until the job leaves every transient state for a terminal
// one (paused jobs do not count as done).
func (s *Server) Wait(id string) error {
	j, err := s.lookup(id)
	if err != nil {
		return err
	}
	<-j.done
	return nil
}

// Health is the /healthz payload: the admission ledger plus a build_info
// line (Go version and VCS revision when the binary carries a stamp).
type Health struct {
	BudgetBytes int64  `json:"budget_bytes"`
	UsedBytes   int64  `json:"used_bytes"`
	PeakBytes   int64  `json:"peak_bytes"`
	Running     int    `json:"running"`
	Queued      int    `json:"queued"`
	Jobs        int    `json:"jobs"`
	Uptime      string `json:"uptime"`
	GoVersion   string `json:"go_version"`
	Revision    string `json:"revision"`
}

// Health reports the server's admission ledger.
func (s *Server) Health() Health {
	goVersion, revision := promexport.Build()
	s.mu.Lock()
	defer s.mu.Unlock()
	return Health{
		BudgetBytes: s.cfg.MemBudgetBytes,
		UsedBytes:   s.used,
		PeakBytes:   s.peak,
		Running:     len(s.running),
		Queued:      len(s.queue),
		Jobs:        len(s.jobs),
		Uptime:      time.Since(s.started).Round(time.Millisecond).String(),
		GoVersion:   goVersion,
		Revision:    revision,
	}
}

// PeakBytes returns the admission ledger's high-water mark (the soak
// harness asserts it stays within budget).
func (s *Server) PeakBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// PoolStats exposes the shared buffer pool's counters (the soak harness
// asserts InUseBytes is zero after shutdown).
func (s *Server) PoolStats() bufpool.Stats { return s.pool.Stats() }

// watchdog periodically quarantines running jobs that have made no step
// progress within StallTimeout, and sweeps queued jobs whose deadlines
// lapsed. A stalled job is cancelled with errStalled; its goroutine
// checkpoints what it has and parks the job in StateQuarantined — the
// server itself keeps serving.
func (s *Server) watchdog() {
	t := time.NewTicker(s.cfg.WatchdogEvery)
	defer t.Stop()
	for {
		select {
		case <-s.watchdogDone:
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-s.cfg.StallTimeout).UnixNano()
		s.mu.Lock()
		var stalled []*job
		for _, j := range s.running {
			if j.progress.Load() < cutoff {
				stalled = append(stalled, j)
			}
		}
		s.pumpLocked() // sweep queued deadline expirations
		s.mu.Unlock()
		for _, j := range stalled {
			j.mu.Lock()
			cancel := j.cancel
			j.mu.Unlock()
			if cancel != nil {
				cancel(fmt.Errorf("%w: no step progress within %v", errStalled, s.cfg.StallTimeout))
			}
		}
	}
}

// Shutdown stops the server: queued and paused jobs are cancelled,
// running jobs are cancelled with the shutdown cause, and the call waits
// (bounded by ctx) for every training goroutine to exit. After Shutdown
// every job is in exactly one terminal state and the shared pool holds
// no checked-out buffers.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.watchdogDone)
	queued := s.queue
	s.queue = nil
	s.queueGauge.Set(0)
	var paused, runningJobs []*job
	for _, j := range s.jobs {
		j.mu.Lock()
		switch j.state {
		case StatePaused:
			paused = append(paused, j)
		case StateRunning:
			runningJobs = append(runningJobs, j)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()

	for _, j := range queued {
		j.setState(StateCancelled, "server shutdown")
	}
	for _, j := range paused {
		j.setState(StateCancelled, "server shutdown")
	}
	for _, j := range runningJobs {
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel(errShutdown)
		}
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.workers.Close() // every job is done with the shared codec pool
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel()
		return ctx.Err()
	}
	s.baseCancel()
	return nil
}
