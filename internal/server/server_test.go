package server

// Functional tests for the job server: lifecycle transitions, cancel
// latency, deadlines, queueing, degradation, tenant fairness, watchdog
// quarantine, and server-level pause→resume determinism.
//
// Tests steer jobs by name through the Config.OnStep hook: a job whose
// name starts with "block" parks in the hook until its context is
// cancelled (occupying a slot indefinitely), and one whose name starts
// with "slow" sleeps 2ms per step so a test can reliably hit it mid-run.

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gist/internal/parallel"
)

// newTestServer builds a server whose OnStep hook implements the
// block/slow naming convention, and shuts it down at test end.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.StallTimeout == 0 {
		cfg.StallTimeout = time.Minute // keep the watchdog out of non-watchdog tests
	}
	if cfg.CheckpointDir == "" {
		cfg.CheckpointDir = t.TempDir()
	}
	var srv atomic.Pointer[Server]
	if cfg.OnStep == nil {
		cfg.OnStep = func(ctx context.Context, id string, step int) {
			st, err := srv.Load().Get(id)
			if err != nil {
				return
			}
			switch {
			case strings.HasPrefix(st.Spec.Name, "block"):
				<-ctx.Done()
			case strings.HasPrefix(st.Spec.Name, "slow"):
				select {
				case <-ctx.Done():
				case <-time.After(2 * time.Millisecond):
				}
			}
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.Store(s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s
}

// waitFor polls pred until it holds or the timeout lapses.
func waitFor(t *testing.T, what string, timeout time.Duration, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func mustStatus(t *testing.T, s *Server, id string) *JobStatus {
	t.Helper()
	st, err := s.Get(id)
	if err != nil {
		t.Fatalf("Get(%s): %v", id, err)
	}
	return st
}

// TestJobLifecycleCompletes runs one small job to completion and checks
// the admission ledger drains back to zero.
func TestJobLifecycleCompletes(t *testing.T) {
	s := newTestServer(t, Config{})
	st, err := s.Submit(JobSpec{Name: "ok", Batch: 4, Classes: 2, Steps: 8})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.FootprintBytes <= 0 {
		t.Fatalf("admitted footprint %d", st.FootprintBytes)
	}
	if err := s.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	got := mustStatus(t, s, st.ID)
	if got.State != StateCompleted || got.Step != 8 {
		t.Fatalf("state %s at step %d, want completed at 8", got.State, got.Step)
	}
	if got.Loss == "" {
		t.Fatal("completed job reports no loss")
	}
	h := s.Health()
	if h.UsedBytes != 0 {
		t.Fatalf("ledger still holds %d bytes after completion", h.UsedBytes)
	}
	if h.PeakBytes < st.FootprintBytes || h.PeakBytes > h.BudgetBytes {
		t.Fatalf("peak %d outside [footprint %d, budget %d]", h.PeakBytes, st.FootprintBytes, h.BudgetBytes)
	}
}

// TestShardedJobCompletes exercises the replica-group engine path.
func TestShardedJobCompletes(t *testing.T) {
	s := newTestServer(t, Config{})
	st, err := s.Submit(JobSpec{Name: "sharded", Batch: 4, Classes: 2, Steps: 6, Shards: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := s.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	got := mustStatus(t, s, st.ID)
	if got.State != StateCompleted || got.Step != 6 {
		t.Fatalf("state %s at step %d, want completed at 6", got.State, got.Step)
	}
}

// TestCancelRunningWithinOneStep cancels a job mid-run and requires the
// terminal transition well within the acceptance latency bound.
func TestCancelRunningWithinOneStep(t *testing.T) {
	s := newTestServer(t, Config{})
	st, err := s.Submit(JobSpec{Name: "slow-cancel", Batch: 4, Classes: 2, Steps: 1 << 20})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, "job running past step 1", 10*time.Second, func() bool {
		g := mustStatus(t, s, st.ID)
		return g.State == StateRunning && g.Step >= 1
	})
	start := time.Now()
	if err := s.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if err := s.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancel took %v, want within one step's latency", elapsed)
	}
	got := mustStatus(t, s, st.ID)
	if got.State != StateCancelled || got.Reason != "cancelled by user" {
		t.Fatalf("state %s (%q), want cancelled by user", got.State, got.Reason)
	}
}

// TestDeadlineCancelsRunningJob: a running job past its deadline is
// cancelled by the propagated context, not left to finish.
func TestDeadlineCancelsRunningJob(t *testing.T) {
	s := newTestServer(t, Config{})
	st, err := s.Submit(JobSpec{Name: "slow-deadline", Batch: 4, Classes: 2, Steps: 1 << 20, DeadlineMS: 150})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	start := time.Now()
	if err := s.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline enforcement took %v", elapsed)
	}
	got := mustStatus(t, s, st.ID)
	if got.State != StateCancelled || got.Reason != "deadline exceeded" {
		t.Fatalf("state %s (%q), want cancelled: deadline exceeded", got.State, got.Reason)
	}
	if got.Step == 0 {
		t.Fatal("job never ran before its deadline")
	}
}

// TestQueuedDeadlineExpires: a job whose deadline lapses while queued is
// cancelled without ever starting.
func TestQueuedDeadlineExpires(t *testing.T) {
	s := newTestServer(t, Config{MaxRunning: 1, WatchdogEvery: 20 * time.Millisecond})
	blocker, err := s.Submit(JobSpec{Name: "block", Batch: 4, Classes: 2, Steps: 1 << 20})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitFor(t, "blocker running", 10*time.Second, func() bool {
		return mustStatus(t, s, blocker.ID).State == StateRunning
	})
	st, err := s.Submit(JobSpec{Name: "doomed", Batch: 4, Classes: 2, Steps: 10, DeadlineMS: 50})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.State != StateQueued {
		t.Fatalf("state %s, want queued behind the blocker", st.State)
	}
	if st.RetryAfterMS <= 0 {
		t.Fatal("queued job carries no backoff hint")
	}
	if err := s.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	got := mustStatus(t, s, st.ID)
	if got.State != StateCancelled || got.Reason != "deadline exceeded before start" {
		t.Fatalf("state %s (%q), want cancelled before start", got.State, got.Reason)
	}
	if got.Step != 0 {
		t.Fatalf("expired queued job ran %d steps", got.Step)
	}
}

// TestQueueFullRejects: past the queue limit, submission is a terminal
// rejection, not an error.
func TestQueueFullRejects(t *testing.T) {
	s := newTestServer(t, Config{MaxRunning: 1, QueueLimit: 1})
	blocker, err := s.Submit(JobSpec{Name: "block", Batch: 4, Classes: 2, Steps: 1 << 20})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitFor(t, "blocker running", 10*time.Second, func() bool {
		return mustStatus(t, s, blocker.ID).State == StateRunning
	})
	if st, err := s.Submit(JobSpec{Name: "waits", Batch: 4, Classes: 2, Steps: 5}); err != nil || st.State != StateQueued {
		t.Fatalf("second submit: state %v err %v, want queued", st, err)
	}
	st, err := s.Submit(JobSpec{Name: "bounced", Batch: 4, Classes: 2, Steps: 5})
	if err != nil {
		t.Fatalf("third submit: %v", err)
	}
	if st.State != StateRejected || !strings.Contains(st.Reason, "queue full") {
		t.Fatalf("state %s (%q), want rejected: queue full", st.State, st.Reason)
	}
	if err := s.Wait(st.ID); err != nil { // rejection is terminal: Wait returns at once
		t.Fatal(err)
	}
}

// TestRejectOverBudget: a job that cannot fit the budget even fully
// degraded is rejected up front.
func TestRejectOverBudget(t *testing.T) {
	s := newTestServer(t, Config{MemBudgetBytes: 1 << 10})
	st, err := s.Submit(JobSpec{Name: "huge", Network: "tinyvgg", Batch: 8, AllowDegrade: true, Steps: 5})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.State != StateRejected || !strings.Contains(st.Reason, "exceeds budget") {
		t.Fatalf("state %s (%q), want rejected over budget", st.State, st.Reason)
	}
}

// TestDegradedAdmission: a budget below the job's requested footprint
// but above a compressed rung admits the job degraded, and it completes.
func TestDegradedAdmission(t *testing.T) {
	spec := JobSpec{Name: "bend", Network: "tinyvgg", Batch: 8, AllowDegrade: true, Steps: 4}.withDefaults()
	full, err := footprint(spec, "none")
	if err != nil {
		t.Fatal(err)
	}
	fp8, err := footprint(spec, "fp8")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{MemBudgetBytes: (full + fp8) / 2})
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !st.Degraded || st.Encoding == "none" {
		t.Fatalf("encoding %s degraded=%v, want a degraded rung", st.Encoding, st.Degraded)
	}
	if err := s.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	if got := mustStatus(t, s, st.ID); got.State != StateCompleted {
		t.Fatalf("degraded job ended %s (%q), want completed", got.State, got.Reason)
	}
}

// TestTenantFairness: when a slot frees, a queued job from a tenant with
// no running jobs starts before an earlier-submitted job from a tenant
// that already holds a slot.
func TestTenantFairness(t *testing.T) {
	s := newTestServer(t, Config{MaxRunning: 2})
	a1, err := s.Submit(JobSpec{Name: "block-a1", Tenant: "a", Batch: 4, Classes: 2, Steps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Submit(JobSpec{Name: "block-a2", Tenant: "a", Batch: 4, Classes: 2, Steps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both tenant-a jobs running", 10*time.Second, func() bool {
		return mustStatus(t, s, a1.ID).State == StateRunning && mustStatus(t, s, a2.ID).State == StateRunning
	})
	a3, err := s.Submit(JobSpec{Name: "block-a3", Tenant: "a", Batch: 4, Classes: 2, Steps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := s.Submit(JobSpec{Name: "block-b1", Tenant: "b", Batch: 4, Classes: 2, Steps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if a3.State != StateQueued || b1.State != StateQueued {
		t.Fatalf("a3=%s b1=%s, want both queued", a3.State, b1.State)
	}

	if err := s.Cancel(a1.ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "tenant b's job to take the freed slot", 10*time.Second, func() bool {
		return mustStatus(t, s, b1.ID).State == StateRunning
	})
	if got := mustStatus(t, s, a3.ID); got.State != StateQueued {
		t.Fatalf("earlier tenant-a job is %s, want still queued behind tenant b", got.State)
	}
}

// TestPauseResumeMatchesUninterrupted pauses a job mid-run, resumes it,
// and requires the final loss to match an identically-seeded job that
// was never paused — the server-level face of the byte-identical resume
// guarantee (the weight-level proof lives in internal/train).
func TestPauseResumeMatchesUninterrupted(t *testing.T) {
	const steps = 60
	s := newTestServer(t, Config{CheckpointEvery: 5})
	spec := JobSpec{Batch: 4, Classes: 2, Steps: steps, Seed: 11}

	ref := spec
	ref.Name = "slow-ref"
	rst, err := s.Submit(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(rst.ID); err != nil {
		t.Fatal(err)
	}
	refStatus := mustStatus(t, s, rst.ID)
	if refStatus.State != StateCompleted || refStatus.Loss == "" {
		t.Fatalf("reference ended %s loss=%q", refStatus.State, refStatus.Loss)
	}

	paused := spec
	paused.Name = "slow-paused"
	pst, err := s.Submit(paused)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job past step 5", 10*time.Second, func() bool {
		g := mustStatus(t, s, pst.ID)
		return g.State == StateRunning && g.Step >= 5
	})
	if err := s.Pause(pst.ID); err != nil {
		t.Fatalf("Pause: %v", err)
	}
	waitFor(t, "job parked in paused", 10*time.Second, func() bool {
		return mustStatus(t, s, pst.ID).State == StatePaused
	})
	mid := mustStatus(t, s, pst.ID)
	if mid.Checkpoint == "" {
		t.Fatal("paused job has no checkpoint")
	}
	if mid.Step >= steps {
		t.Fatalf("paused after %d steps, nothing left to resume", mid.Step)
	}
	if used := s.Health().UsedBytes; used != 0 {
		t.Fatalf("paused job still holds %d budget bytes", used)
	}

	if err := s.Resume(pst.ID); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if err := s.Wait(pst.ID); err != nil {
		t.Fatal(err)
	}
	got := mustStatus(t, s, pst.ID)
	if got.State != StateCompleted || got.Step != steps {
		t.Fatalf("resumed job ended %s at step %d, want completed at %d", got.State, got.Step, steps)
	}
	if got.Loss != refStatus.Loss {
		t.Fatalf("resumed loss %s != uninterrupted loss %s", got.Loss, refStatus.Loss)
	}
}

// TestWatchdogQuarantinesStalledJob: a job that stops making step
// progress is cancelled by the watchdog and parked in quarantine while
// the server keeps serving other jobs.
func TestWatchdogQuarantinesStalledJob(t *testing.T) {
	s := newTestServer(t, Config{StallTimeout: 150 * time.Millisecond, WatchdogEvery: 25 * time.Millisecond})
	st, err := s.Submit(JobSpec{Name: "block-stall", Batch: 4, Classes: 2, Steps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	got := mustStatus(t, s, st.ID)
	if got.State != StateQuarantined || !strings.Contains(got.Reason, "no step progress") {
		t.Fatalf("state %s (%q), want quarantined for stalling", got.State, got.Reason)
	}
	// The server still admits and completes new work afterwards.
	ok, err := s.Submit(JobSpec{Name: "after", Batch: 4, Classes: 2, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(ok.ID); err != nil {
		t.Fatal(err)
	}
	if got := mustStatus(t, s, ok.ID); got.State != StateCompleted {
		t.Fatalf("post-quarantine job ended %s", got.State)
	}
}

// TestLifecycleVerbErrors pins the error taxonomy for misapplied verbs.
func TestLifecycleVerbErrors(t *testing.T) {
	s := newTestServer(t, Config{MaxRunning: 1})
	blocker, err := s.Submit(JobSpec{Name: "block", Batch: 4, Classes: 2, Steps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker running", 10*time.Second, func() bool {
		return mustStatus(t, s, blocker.ID).State == StateRunning
	})
	queued, err := s.Submit(JobSpec{Name: "q", Batch: 4, Classes: 2, Steps: 5})
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Pause(queued.ID); err == nil || !strings.Contains(err.Error(), "invalid state transition") {
		t.Fatalf("pause queued: %v, want ErrBadTransition", err)
	}
	if err := s.Resume(blocker.ID); err == nil || !strings.Contains(err.Error(), "invalid state transition") {
		t.Fatalf("resume running: %v, want ErrBadTransition", err)
	}
	if err := s.Cancel("j9999"); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("cancel unknown: %v, want ErrUnknownJob", err)
	}
	// Cancelling a queued job is immediate and terminal.
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if got := mustStatus(t, s, queued.ID); got.State != StateCancelled {
		t.Fatalf("cancelled queued job is %s", got.State)
	}
	// Cancelling a terminal job is a no-op, not an error.
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatalf("re-cancel terminal: %v", err)
	}
}

// TestShutdownClosesWorkerPool: the codec pool Config.Workers builds keeps
// its helpers for the server's life, and Shutdown stops them once the jobs
// are done, so the goroutine count returns to where it was before New.
func TestShutdownClosesWorkerPool(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	s, err := New(Config{Workers: 3, CheckpointDir: t.TempDir(), StallTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(JobSpec{Name: "w", Batch: 4, Classes: 2, Steps: 3, Encoding: "fp16"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job done", 30*time.Second, func() bool {
		got, err := s.Get(st.ID)
		return err == nil && got.State == StateCompleted
	})
	s.workers.ForEach(8, parallel.Func(func(int) {})) // as a job's multi-chunk map would
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "goroutines back at their baseline", 10*time.Second, func() bool {
		return runtime.NumGoroutine() == base
	})
}
