// Package server implements the multi-tenant training job server: an
// HTTP/JSON front end over the gist training runtime that admits
// concurrent jobs against a global memory budget using the planner's
// footprint predictions, schedules them fairly across tenants over a
// shared codec worker pool and buffer pool, and drives every job through
// a full lifecycle — submit, pause, checkpoint, resume, cancel — on the
// crash-safe v3 checkpoints. Jobs that cannot fit are queued with a
// backoff hint or re-planned at a higher-compression Gist encoding
// (graceful degradation) before being rejected; a per-job watchdog
// quarantines jobs that stop making progress without taking the server
// down with them.
package server

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gist/internal/faults"
	"gist/internal/telemetry"
	"gist/internal/telemetry/flightrec"
	"gist/internal/telemetry/promexport"
	"gist/internal/train"
)

// State is a job's lifecycle state. Queued, Running and Paused are
// transient; the rest are terminal — a job enters exactly one terminal
// state exactly once, which the soak harness asserts.
type State string

const (
	// StateQueued marks a job admitted but waiting for budget or a slot.
	StateQueued State = "queued"
	// StateRunning marks a job with a live training goroutine.
	StateRunning State = "running"
	// StatePaused marks a job checkpointed and released; Resume re-admits.
	StatePaused State = "paused"
	// StateCompleted marks a job that finished all its steps.
	StateCompleted State = "completed"
	// StateCancelled marks a job stopped by the caller, its deadline, or
	// server shutdown.
	StateCancelled State = "cancelled"
	// StateRejected marks a job that admission refused (over budget even
	// fully degraded, or queue full).
	StateRejected State = "rejected"
	// StateQuarantined marks a job the watchdog stopped for stalling; its
	// last checkpoint is preserved for post-mortem.
	StateQuarantined State = "quarantined"
	// StateFailed marks a job whose training loop errored out (e.g. a
	// step exhausted its fault-retry budget).
	StateFailed State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateCompleted, StateCancelled, StateRejected, StateQuarantined, StateFailed:
		return true
	}
	return false
}

// JobSpec is the caller's description of one training job.
type JobSpec struct {
	// Name is a human label; Tenant groups jobs for fair scheduling (the
	// scheduler favors tenants with the fewest running jobs). Both default
	// to "default".
	Name   string `json:"name"`
	Tenant string `json:"tenant"`
	// Network selects the model: "tinycnn" (16x16 inputs) or "tinyvgg"
	// (32x32 inputs). Default "tinycnn".
	Network string `json:"network"`
	// Classes and Batch size the task (defaults 4 and 8). Steps is the
	// total optimizer steps to run (default 50); LR the learning rate
	// (default 0.05); Seed drives weights, dropout and the data stream.
	Classes int     `json:"classes"`
	Batch   int     `json:"batch"`
	Steps   int     `json:"steps"`
	LR      float64 `json:"lr"`
	Seed    uint64  `json:"seed"`
	// Encoding selects the Gist stash configuration: "none", "lossless",
	// "fp16", "fp10" or "fp8" (default "none"). Under memory pressure,
	// AllowDegrade lets admission re-plan the job at the next
	// higher-compression rung of that ladder instead of queueing or
	// rejecting it.
	Encoding     string `json:"encoding"`
	AllowDegrade bool   `json:"allow_degrade"`
	// Technique narrows the stash configuration to one codec technique
	// ("binarize", "dpr", "zvc"), or "adaptive" for ZVC with a dense DPR
	// fallback. Layered over Encoding: the rung still supplies the DPR
	// format and the degradation ladder.
	Technique string `json:"technique,omitempty"`
	// Shards > 1 runs the job as a data-parallel replica group of that
	// many micro-shards (and replicas), multiplying both the per-step
	// batch and the admitted footprint.
	Shards int `json:"shards"`
	// DeadlineMS, when positive, cancels the job that long after
	// submission — a queued job whose deadline lapses is cancelled
	// without ever starting.
	DeadlineMS int64 `json:"deadline_ms"`
	// CheckpointEvery is the periodic checkpoint interval in steps
	// (default: the server's; 0 inherits). MaxRetries is the per-step
	// fault-retry budget.
	CheckpointEvery int `json:"checkpoint_every"`
	MaxRetries      int `json:"max_retries"`
	// StashBudget, when positive, caps the bytes of stashed feature maps
	// the job holds in RAM; the rest spill to sealed encoded pages in the
	// server's spill directory. Admission counts only the capped hot tier
	// against the memory budget, so a spilling job admits smaller. The
	// budget is per job (split across replicas when Shards > 1).
	StashBudget int64 `json:"stash_budget,omitempty"`
	// Faults, when non-nil, attaches a deterministic fault injector to
	// the job's stash pipeline (soak/chaos testing).
	Faults *faults.Config `json:"faults,omitempty"`
}

// withDefaults fills the zero fields.
func (s JobSpec) withDefaults() JobSpec {
	if s.Name == "" {
		s.Name = "job"
	}
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Network == "" {
		s.Network = "tinycnn"
	}
	if s.Classes <= 0 {
		s.Classes = 4
	}
	if s.Batch <= 0 {
		s.Batch = 8
	}
	if s.Steps <= 0 {
		s.Steps = 50
	}
	if s.LR <= 0 {
		s.LR = 0.05
	}
	if s.Encoding == "" {
		s.Encoding = "none"
	}
	if s.Shards < 1 {
		s.Shards = 1
	}
	return s
}

// JobStatus is the JSON view of one job.
type JobStatus struct {
	ID    string  `json:"id"`
	Spec  JobSpec `json:"spec"`
	State State   `json:"state"`
	// Reason explains terminal states and pauses ("deadline exceeded",
	// "watchdog: no progress for 2s", ...).
	Reason string `json:"reason,omitempty"`
	// Encoding is the effective encoding after any degradation; Degraded
	// reports that it differs from the requested one.
	Encoding string `json:"encoding"`
	Degraded bool   `json:"degraded,omitempty"`
	// FootprintBytes is the admitted memory reservation.
	FootprintBytes int64 `json:"footprint_bytes"`
	// Step and Loss track training progress.
	Step int    `json:"step"`
	Loss string `json:"loss,omitempty"`
	// RetryAfterMS is the backoff hint while queued: roughly how long the
	// caller should wait before expecting the job to have started.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Checkpoint is the path of the job's latest checkpoint, if any.
	Checkpoint string `json:"checkpoint,omitempty"`
	Submitted  string `json:"submitted"`
}

// job is the server's internal job record. The mutex guards state, reason
// and encoding; step/progress are atomics so the watchdog and HTTP
// handlers never contend with the training goroutine.
type job struct {
	id   string
	seq  int // submission order, for FIFO within a tenant
	spec JobSpec

	mu        sync.Mutex
	state     State
	reason    string
	enc       string // effective encoding (after degradation)
	footprint int64
	cancel    func(error) // cancels the running context with a cause
	// terminals counts transitions into terminal states; the soak harness
	// asserts it is exactly 1 for every job.
	terminals int

	step      atomic.Int64 // completed steps
	lossBits  atomic.Uint64
	progress  atomic.Int64 // UnixNano of the last completed step
	submitted time.Time
	deadline  time.Time // zero when the spec has no deadline

	tel  *telemetry.Sink
	ckpt string        // checkpoint path ("" until first save)
	done chan struct{} // closed when the job reaches a terminal state

	// rec taps tel's span/instant/mem stream when flight recording is on.
	rec *flightrec.Recorder
	// report is the last recovery report the training loop produced;
	// guarded by mu.
	report *train.RecoveryReport

	// Live streaming: subscribers receive one StreamEvent per completed
	// step; lastStepNS times the delta between steps.
	subMu      sync.Mutex
	subs       map[*subscriber]struct{}
	lastStepNS atomic.Int64
}

// labels is the base label set the job's sink renders under, in /metrics
// and /jobs/{id}/telemetry alike.
func (j *job) labels() []promexport.Label {
	return []promexport.Label{{Key: "job_id", Value: j.id}, {Key: "tenant", Value: j.spec.Tenant}}
}

// setReport stores the run's recovery report for flight dumps.
func (j *job) setReport(r *train.RecoveryReport) {
	j.mu.Lock()
	j.report = r
	j.mu.Unlock()
}

// recoveryReport returns the last stored recovery report (nil if none).
func (j *job) recoveryReport() *train.RecoveryReport {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

// setState transitions the job. Terminal states latch: once a job is
// terminal, further transitions are ignored, preserving the
// exactly-one-terminal-state invariant even when a cancel races the
// job's own completion.
func (j *job) setState(s State, reason string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = s
	if reason != "" {
		j.reason = reason
	}
	if s.Terminal() {
		j.terminals++
		close(j.done)
	}
	return true
}

// setCkpt records the job's latest checkpoint path (called from the
// training goroutine; readers go through status()).
func (j *job) setCkpt(path string) {
	j.mu.Lock()
	j.ckpt = path
	j.mu.Unlock()
}

// status renders the JSON view.
func (j *job) status() *JobStatus {
	j.mu.Lock()
	state, reason, enc, fp, ckpt := j.state, j.reason, j.enc, j.footprint, j.ckpt
	j.mu.Unlock()
	st := &JobStatus{
		ID:             j.id,
		Spec:           j.spec,
		State:          state,
		Reason:         reason,
		Encoding:       enc,
		Degraded:       enc != j.spec.Encoding,
		FootprintBytes: fp,
		Step:           int(j.step.Load()),
		Checkpoint:     ckpt,
		Submitted:      j.submitted.Format(time.RFC3339Nano),
	}
	if bits := j.lossBits.Load(); bits != 0 {
		st.Loss = fmt.Sprintf("%.4f", math.Float64frombits(bits))
	}
	return st
}
