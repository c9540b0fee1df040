package train

// Trainer drives repeated minibatch steps and records the accuracy-loss
// trajectory the paper plots in Figure 12 and the per-layer sparsity series
// of Figure 14.

import (
	"context"
	"errors"
	"fmt"

	"gist/internal/graph"
	"gist/internal/tensor"
)

// Engine is a training engine the run loop can drive: a single Executor or
// a data-parallel ReplicaGroup. TryStep runs one optimizer step over a
// Batch()-row minibatch and surfaces stash-pipeline failures and context
// cancellation as errors; the rest is what the loop needs around it — the
// context binding, the completed-step clock a resumed run realigns, the
// Figure 14 probe, and the executors whose state it snapshots, restores
// and checkpoints.
type Engine interface {
	TryStep(x *tensor.Tensor, labels []int, lr float32) (loss float64, errors int, err error)
	Eval(x *tensor.Tensor, labels []int) (loss float64, errors int)
	// Batch is the number of rows one step consumes.
	Batch() int
	// Executors lists the engine's executors in replica order; element 0
	// owns the caller's graph.
	Executors() []*Executor
	SetContext(ctx context.Context)
	SetResumeStep(n int)
	SetSparsityProbe(on bool)
	ReLUSparsities() map[string]float64
	Close()
}

// NewEngine builds the engine a ReplicaConfig asks for, and is the one
// place that decides: a config that names neither a second replica nor a
// shard count (the zero value) is a single Executor over g, anything else
// a ReplicaGroup — so Shards: 1 is a one-shard group with the group's
// per-shard dropout seeding, not an Executor.
func NewEngine(g *graph.Graph, opts Options, cfg ReplicaConfig) Engine {
	if cfg.Replicas <= 1 && cfg.Shards <= 0 {
		return NewExecutor(g, opts)
	}
	return NewReplicaGroup(g, opts, cfg)
}

// Record is one probe point of a training run.
type Record struct {
	Minibatch int
	Loss      float64
	// AccuracyLoss is the paper's y-axis: 1 - training accuracy, measured
	// over the probe window.
	AccuracyLoss float64
	// ReLUSparsity holds per-ReLU zero fractions at this probe (only when
	// sparsity probing is enabled).
	ReLUSparsity map[string]float64
}

// RunConfig configures a training run.
type RunConfig struct {
	Minibatch int
	Steps     int
	LR        float32
	// ProbeEvery controls how often a Record is emitted (in steps).
	ProbeEvery int
	// ProbeSparsity records ReLU sparsities at each probe.
	ProbeSparsity bool
	// OnStep, when non-nil, is called after every completed step with the
	// 1-based step number and its minibatch loss. Job servers use it for
	// liveness/progress tracking (the watchdog's heartbeat); it runs on
	// the training goroutine, so it must be fast and must not call back
	// into the engine.
	OnStep func(step int, loss float64)
}

// Run trains the engine's graph on the dataset and returns the probe
// records. The accuracy-loss at each probe is the error rate accumulated
// since the previous probe, matching how the paper tracks training
// accuracy over time. cfg.Minibatch must equal the engine's Batch. Run is
// RunContext with the background context; it panics on stash-pipeline
// failures exactly as Step does.
func Run(en Engine, d *Dataset, cfg RunConfig) []Record {
	records, err := RunContext(context.Background(), en, d, cfg)
	if err != nil {
		panic(fmt.Sprintf("train: Run under fault injection must use RunContext: %v", err))
	}
	return records
}

// RunContext trains like Run under a context: the loop checks ctx before
// every step and the bound engine additionally polls it at phase boundaries
// inside the step, so a cancelled or expired context stops the run within
// one step's latency. The records accumulated so far are always returned;
// err is nil on a completed run, wraps the context error on
// cancellation/deadline (errors.Is-matchable), and wraps the engine's error
// on a stash-pipeline failure — the first failed step ends the run.
func RunContext(ctx context.Context, en Engine, d *Dataset, cfg RunConfig) ([]Record, error) {
	records, _, err := run(ctx, en, d, cfg, nil)
	return records, err
}

// run is the training loop behind Run, RunContext and RunRecoverable. It
// resumes after the completed-step count executor 0 carries (a checkpoint
// load sets it), realigning the engine's step clock so RNG streams replay
// exactly, and clocks the fault injector once per step.
//
// With a recovery config the loop keeps one snapshot per executor,
// refreshed in place after every good step: a failed step restores each
// executor, rewinds the engine's clock and is retried under capped
// exponential backoff, and a periodic checkpoint is written from executor
// 0. A ReplicaGroup retries failed shards itself, so the loop only sees the
// steps a group had to abandon. With rcfg nil there is no snapshot, no
// checkpoint, and the first failed step ends the run.
func run(ctx context.Context, en Engine, d *Dataset, cfg RunConfig, rcfg *RecoveryConfig) ([]Record, *RecoveryReport, error) {
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 10
	}
	if cfg.ProbeSparsity {
		// Under pooling, ReLU outputs recycle mid-step; arm the in-step
		// capture so ReLUSparsities has values to report, and disarm it on
		// exit so a later run without the probe does not keep paying it.
		en.SetSparsityProbe(true)
		defer en.SetSparsityProbe(false)
	}
	en.SetContext(ctx)
	defer en.SetContext(nil)

	execs := en.Executors()
	lead := execs[0]
	tel, inj := lead.tel, lead.opts.Faults
	report := &RecoveryReport{}
	var rc RecoveryConfig
	var good []*Snapshot
	if rcfg != nil {
		rc = rcfg.withDefaults(cfg.ProbeEvery)
		good = make([]*Snapshot, len(execs))
		for i, e := range execs {
			good[i] = e.Snapshot()
		}
	}

	// Recovery-loop instruments (nil, hence free, when the engine carries
	// no sink). They mirror the report's counters one-for-one, which the
	// telemetry cross-check test pins.
	retriesC := tel.Counter("train.retries")
	recoveredC := tel.Counter("train.recovered_steps")
	ckptSaves := tel.Counter("train.checkpoint.saves")
	ckptFails := tel.Counter("train.checkpoint.failures")

	var records []Record
	windowErrs, windowN := 0, 0

	finish := func(err error) ([]Record, *RecoveryReport, error) {
		for _, e := range execs {
			report.Robust.add(e.Robust)
		}
		if inj != nil {
			report.FaultCounts = inj.Counts()
		}
		return records, report, err
	}

	// One batch buffer pair, refilled every step: a step's engine is done
	// with its input when TryStep returns.
	x := tensor.New(cfg.Minibatch, d.Channels, d.Size, d.Size)
	labels := make([]int, cfg.Minibatch)
	start := lead.ResumeStep()
	en.SetResumeStep(start)
	for step := start + 1; step <= cfg.Steps; step++ {
		if cerr := ctx.Err(); cerr != nil {
			return finish(fmt.Errorf("train: run stopped before step %d: %w", step, cerr))
		}
		d.BatchInto(x, labels)
		inj.BeginStep(step)

		var loss float64
		var errs int
		backoff := rc.BackoffBase
		recovered := false
		for attempt := 0; ; attempt++ {
			var err error
			loss, errs, err = en.TryStep(x, labels, cfg.LR)
			if err == nil {
				break
			}
			if rcfg == nil {
				return finish(fmt.Errorf("train: run stopped at step %d: %w", step, err))
			}
			for i, e := range execs {
				e.Restore(good[i])
			}
			en.SetResumeStep(step - 1)
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// Cancellation, not a fault: the state is rolled back to
				// the last good snapshot; don't burn retries on it.
				return finish(fmt.Errorf("train: step %d canceled: %w", step, err))
			}
			if attempt >= rc.MaxRetries {
				report.GaveUpStep = step
				tel.Gauge("train.gave_up_step").Set(int64(step))
				return finish(fmt.Errorf("train: step %d failed after %d retries: %w",
					step, rc.MaxRetries, err))
			}
			if rc.Sleep != nil {
				rc.Sleep(backoff)
			} else if werr := sleepCtx(ctx, backoff); werr != nil {
				return finish(fmt.Errorf(
					"train: step %d canceled during retry backoff: %w (last cause: %w)",
					step, werr, err))
			}
			report.BackoffTotal += backoff
			if cerr := ctx.Err(); cerr != nil {
				return finish(fmt.Errorf(
					"train: step %d canceled during retry backoff: %w (last cause: %w)",
					step, cerr, err))
			}
			if backoff *= 2; backoff > rc.BackoffMax {
				backoff = rc.BackoffMax
			}
			report.Retries++
			retriesC.Inc()
			recovered = true
		}
		if recovered {
			report.RecoveredSteps++
			recoveredC.Inc()
		}
		report.Steps = step
		en.SetResumeStep(step)
		for i, s := range good {
			execs[i].snapshotInto(s)
		}
		if cfg.OnStep != nil {
			cfg.OnStep(step, loss)
		}

		windowErrs += errs
		windowN += cfg.Minibatch
		if step%cfg.ProbeEvery == 0 {
			rec := Record{
				Minibatch:    step,
				Loss:         loss,
				AccuracyLoss: float64(windowErrs) / float64(windowN),
			}
			if cfg.ProbeSparsity {
				rec.ReLUSparsity = en.ReLUSparsities()
			}
			records = append(records, rec)
			windowErrs, windowN = 0, 0
		}
		if rc.CheckpointPath != "" && step%rc.CheckpointEvery == 0 {
			// Writes go through the injector's wrapper (a no-op when no
			// checkpoint fault is configured) so torn/corrupt streams are
			// exercised; the atomic save catches them before promotion.
			if err := lead.SaveCheckpointFileVia(rc.CheckpointPath, inj.WrapWriter); err != nil {
				report.CheckpointFailures++
				ckptFails.Inc()
			} else {
				report.CheckpointSaves++
				ckptSaves.Inc()
			}
		}
	}
	return finish(nil)
}

// FinalAccuracyLoss returns the accuracy loss of the last probe window, or
// 1 (untrained) when there are no records.
func FinalAccuracyLoss(records []Record) float64 {
	if len(records) == 0 {
		return 1
	}
	return records[len(records)-1].AccuracyLoss
}

// Diverged reports whether a run failed to train: its final accuracy loss
// is no better than chance for the given class count, or its loss became
// non-finite.
func Diverged(records []Record, classes int) bool {
	if len(records) == 0 {
		return true
	}
	last := records[len(records)-1]
	chance := 1 - 1/float64(classes)
	if last.AccuracyLoss >= chance*0.95 {
		return true
	}
	return last.Loss != last.Loss // NaN
}

// MeasuredSparsity converts a training run's final sparsity probe into a
// planning-time sparsity model for the encoding analysis, letting the
// full-scale memory planner use sparsities measured on the scaled run.
func MeasuredSparsity(rec Record) func(n *graph.Node) float64 {
	return func(n *graph.Node) float64 {
		if s, ok := rec.ReLUSparsity[n.Name]; ok {
			return s
		}
		return 0
	}
}

// AverageSparsity returns the mean ReLU sparsity of a record, or 0.
func AverageSparsity(rec Record) float64 {
	if len(rec.ReLUSparsity) == 0 {
		return 0
	}
	var sum float64
	for _, s := range rec.ReLUSparsity {
		sum += s
	}
	return sum / float64(len(rec.ReLUSparsity))
}
