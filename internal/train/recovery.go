package train

// Crash-safe training recovery: an in-memory snapshot of everything a step
// mutates (parameters, momenta, batch-norm running statistics, the RNG),
// and a trainer loop that re-executes a failed step from the last good
// snapshot with capped exponential backoff, periodically persisting an
// atomic on-disk checkpoint. The loop surfaces a RecoveryReport whose
// counters are cross-checked against the fault injector's log in tests.

import (
	"context"
	"fmt"
	"time"

	"gist/internal/faults"
	"gist/internal/layers"
)

// Snapshot captures the executor state a training step mutates, so a
// failed step can be rolled back and replayed bit-identically.
type Snapshot struct {
	params, moms  []float32   // copies of the executor's two flats (none on a replica)
	bnMean, bnVar [][]float32 // per node ID; empty means never allocated
	rng           uint64
}

// Snapshot copies the executor's mutable training state.
func (e *Executor) Snapshot() *Snapshot {
	s := &Snapshot{}
	e.snapshotInto(s)
	return s
}

// snapshotInto refreshes s, a snapshot of this executor, in place: shapes
// never change, so every array is reused and the run loop's per-step
// refresh allocates nothing. A replica copies no flat: its parameters and
// momenta are the lead's.
func (e *Executor) snapshotInto(s *Snapshot) {
	if !e.viewsLead {
		s.params = append(s.params[:0], e.paramFlat...)
		s.moms = append(s.moms[:0], e.momFlat...)
	}
	if s.bnMean == nil {
		s.bnMean, s.bnVar = make([][]float32, len(e.G.Nodes)), make([][]float32, len(e.G.Nodes))
	}
	for _, n := range e.G.Nodes {
		if bn, ok := n.Op.(*layers.BatchNormOp); ok {
			s.bnMean[n.ID] = append(s.bnMean[n.ID][:0], bn.RunningMean...)
			s.bnVar[n.ID] = append(s.bnVar[n.ID][:0], bn.RunningVar...)
		}
	}
	s.rng = e.rng.State()
}

// Restore rewinds the executor to a snapshot taken on the same executor:
// parameters, momenta, batch-norm statistics and the RNG stream. Gradients
// are zeroed (a failed step may not have consumed them). A replica's
// snapshot holds no flat, so it copies none over the lead's.
func (e *Executor) Restore(s *Snapshot) {
	copy(e.paramFlat, s.params)
	copy(e.momFlat, s.moms)
	e.zeroGrads()
	for _, n := range e.G.Nodes {
		if bn, ok := n.Op.(*layers.BatchNormOp); ok {
			// An empty saved slice means the stats were still lazily
			// unallocated at snapshot time; return to that pristine state so
			// the replayed forward re-initializes them identically.
			if m := s.bnMean[n.ID]; len(m) == 0 {
				bn.RunningMean, bn.RunningVar = nil, nil
			} else {
				bn.RunningMean = append([]float32(nil), m...)
				bn.RunningVar = append([]float32(nil), s.bnVar[n.ID]...)
			}
		}
	}
	e.rng.SetState(s.rng)
}

// RecoveryConfig tunes the retry/backoff/checkpoint behaviour of
// RunRecoverable. The zero value uses the documented defaults.
type RecoveryConfig struct {
	// MaxRetries is the retry budget per step (default 5). The run aborts
	// once a single step exhausts it.
	MaxRetries int
	// BackoffBase is the first retry's delay (default 1ms); each further
	// retry doubles it, capped at BackoffMax (default 100ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// CheckpointPath, when set, atomically writes a verified checkpoint
	// there every CheckpointEvery steps (default: the probe interval).
	CheckpointPath  string
	CheckpointEvery int
	// Sleep replaces the backoff wait (tests inject a recorder); nil uses
	// a context-aware timer wait that aborts the moment the run's context
	// is cancelled or its deadline expires. An injected Sleep is followed
	// by a context check, so cancellation still aborts between waits.
	Sleep func(time.Duration)
}

// sleepCtx waits d or until ctx is done, whichever is first, returning the
// context's error when the wait was interrupted.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (rc *RecoveryConfig) withDefaults(probeEvery int) RecoveryConfig {
	c := *rc
	if c.MaxRetries <= 0 {
		c.MaxRetries = 5
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 100 * time.Millisecond
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = probeEvery
	}
	return c
}

// RecoveryReport summarizes the robustness behaviour of one recoverable
// run: how often steps failed and were replayed, what the executor counted
// (fallbacks, CRC detections, injected failures), and how checkpointing
// fared. FaultCounts carries the injector's own log for cross-checking.
type RecoveryReport struct {
	// Steps is the number of steps that completed.
	Steps int
	// Retries is the total number of step re-executions.
	Retries int
	// RecoveredSteps is the number of steps that failed at least once and
	// then completed.
	RecoveredSteps int
	// GaveUpStep is the step that exhausted its retry budget (0 when the
	// run completed).
	GaveUpStep int
	// BackoffTotal is the summed backoff delay the run waited out.
	BackoffTotal time.Duration
	// CheckpointSaves and CheckpointFailures count the periodic atomic
	// checkpoint writes.
	CheckpointSaves    int
	CheckpointFailures int
	// Robust is the executors' counter blocks at run end, summed over the
	// engine's replicas.
	Robust RobustnessStats
	// FaultCounts aggregates the injector's event log by kind (nil when no
	// injector was attached).
	FaultCounts map[faults.Kind]int
}

// add accumulates another executor's counters into r.
func (r *RobustnessStats) add(o RobustnessStats) {
	r.SparseFallbacks += o.SparseFallbacks
	r.CRCFailures += o.CRCFailures
	r.EncodeFailures += o.EncodeFailures
	r.DecodeFailures += o.DecodeFailures
	r.AllocFailures += o.AllocFailures
	r.SpillWriteFailures += o.SpillWriteFailures
	r.SpillReadFailures += o.SpillReadFailures
}

// String renders the report as a compact multi-line summary.
func (r *RecoveryReport) String() string {
	s := fmt.Sprintf("steps %d, retries %d, recovered steps %d, backoff %v\n",
		r.Steps, r.Retries, r.RecoveredSteps, r.BackoffTotal)
	s += fmt.Sprintf("stash: crc-detected %d, sparse->dense fallbacks %d, injected encode/decode/alloc %d/%d/%d\n",
		r.Robust.CRCFailures, r.Robust.SparseFallbacks,
		r.Robust.EncodeFailures, r.Robust.DecodeFailures, r.Robust.AllocFailures)
	if r.Robust.SpillWriteFailures > 0 || r.Robust.SpillReadFailures > 0 {
		s += fmt.Sprintf("spill: write failures %d, corrupt pages detected %d\n",
			r.Robust.SpillWriteFailures, r.Robust.SpillReadFailures)
	}
	s += fmt.Sprintf("checkpoints: %d saved, %d failed", r.CheckpointSaves, r.CheckpointFailures)
	if r.GaveUpStep > 0 {
		s += fmt.Sprintf("\nGAVE UP at step %d", r.GaveUpStep)
	}
	return s
}

// RunRecoverable trains like Run but survives stash-pipeline failures: each
// step runs against a snapshot of the last good state, and on failure the
// state is rolled back, the loop backs off (exponential, capped), and the
// step is re-executed. A step that exhausts MaxRetries aborts the run with
// an error; the records and report accumulated so far are still returned.
// A ReplicaGroup spends its own per-shard retry budget first; the loop
// retries only the steps the group abandoned.
//
// The context is threaded through the whole loop: it is bound to the
// engine (polled at step phase boundaries), checked before every step,
// and it interrupts the backoff wait immediately — a cancelled or
// deadline-expired run returns within one step's latency with the state
// rolled back to the last good snapshot, records and report intact, and an
// error wrapping ctx.Err() (plus the last failure cause when the
// cancellation landed mid-retry).
//
// With no fault injector attached the loop's overhead is one in-place state
// snapshot per executor per step; with nothing to roll back it behaves
// exactly like Run.
func RunRecoverable(ctx context.Context, en Engine, d *Dataset, cfg RunConfig, rcfg RecoveryConfig) ([]Record, *RecoveryReport, error) {
	return run(ctx, en, d, cfg, &rcfg)
}
