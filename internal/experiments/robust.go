package experiments

// Robustness experiment: trains the Figure 12 substrate network with the
// full encoded-stash pipeline (Binarize/ZVC/DPR) while the fault injector
// flips bits in held stashes, fails encode/decode calls and applies memory
// pressure. The run must complete through the recovery loop, every injected
// stash corruption must be caught by the CRC seal, and the recovery
// report's counters must reconcile exactly with the injector's log — the
// same invariants the train package's tests enforce, exercised here at CLI
// scale with a printable report.

import (
	"context"
	"time"

	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/faults"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/liveness"
	"gist/internal/memplan"
	"gist/internal/networks"
	"gist/internal/telemetry"
	"gist/internal/train"
)

// RobustScale sizes the robustness run: the training dimensions plus the
// injected fault mix and the recovery budget.
type RobustScale struct {
	Classes   int
	Minibatch int
	Steps     int
	LR        float32
	NoiseStd  float64
	Seed      uint64

	Faults     faults.Config
	MaxRetries int
	// CheckpointPath, when set, makes the run persist periodic atomic
	// checkpoints (through the injector's writer wrapper, so checkpoint
	// faults are exercised too).
	CheckpointPath string
	// Technique, when set, narrows the stash encoding to one codec
	// technique or "adaptive" (see encoding.Config.WithTechniqueName).
	Technique string
	// StashBudget, when set, caps the in-RAM stash bytes, spilling the
	// excess to encoded pages under SpillDir.
	StashBudget int64
	SpillDir    string
	// Tel, when non-nil, instruments the run end to end: executor step
	// spans, injector event mirroring, per-step memory samples and the
	// planner's predicted footprint (plan.static.* gauges vs the observed
	// mem.peak_held_bytes).
	Tel *telemetry.Sink
}

// DefaultRobustScale injects a fault roughly every other step and finishes
// in a few seconds on one core.
func DefaultRobustScale() RobustScale {
	return RobustScale{
		Classes: 4, Minibatch: 8, Steps: 120, LR: 0.05, NoiseStd: 0.4, Seed: 42,
		Faults: faults.Config{
			Seed:           1,
			BitFlipRate:    0.02,
			EncodeFailRate: 0.01,
			DecodeFailRate: 0.01,
		},
		MaxRetries: 25,
	}
}

// Robust runs the fault-injected training study and reports whether the
// recovery machinery held: completion, CRC detection of every bit flip,
// and counter reconciliation between executor, recovery loop and injector.
func Robust(s RobustScale) *Result {
	r := &Result{ID: "robust", Title: "Fault-injected encoded training with crash-safe recovery"}

	g := networks.TinyCNN(s.Minibatch, s.Classes)
	a := encoding.Analyze(g, withTechnique(encoding.LossyLossless(floatenc.FP16), s.Technique))
	inj := faults.New(s.Faults)
	pool := bufpool.Shared()
	e := train.NewExecutor(g, train.Options{Seed: s.Seed, Encodings: a, Faults: inj, Telemetry: s.Tel, Pool: pool,
		StashBudget: s.StashBudget, SpillDir: s.SpillDir})
	if s.StashBudget > 0 {
		// Delete the spill file when the run returns. Only the store is
		// closed: Executor.Close would also recycle the last step's
		// buffers and move the pool gauges Tel exports. Closing the store
		// zeroes its held-bytes gauges, so a budgeted run exports 0 there.
		defer e.StashStore().Close()
	}
	d := train.NewDataset(s.Classes, 3, 16, s.NoiseStd, s.Seed+1)

	if s.Tel != nil {
		// Publish the planner's static prediction so the exposition sets
		// it against the peak the executor actually observes.
		tl := graph.BuildTimeline(g)
		plan := memplan.PlanStatic(liveness.Analyze(g, tl, liveness.Options{Analysis: a}))
		plan.RecordTelemetry(s.Tel, "static")
		memplan.RecordEncodingTelemetry(s.Tel, "static", a)
		pool.SetTelemetry(s.Tel)
	}

	start := time.Now()
	recs, report, err := train.RunRecoverable(context.Background(), e, d,
		train.RunConfig{Minibatch: s.Minibatch, Steps: s.Steps, LR: s.LR, ProbeEvery: 20},
		train.RecoveryConfig{MaxRetries: s.MaxRetries, CheckpointPath: s.CheckpointPath})
	elapsed := time.Since(start)

	r.add("network TinyCNN, %d steps of minibatch %d, encoded stashes (Binarize/ZVC/DPR-FP16)", s.Steps, s.Minibatch)
	r.add("fault mix: bitflip %.3g, encode-fail %.3g, decode-fail %.3g, alloc budget %d B (seed %d)",
		s.Faults.BitFlipRate, s.Faults.EncodeFailRate, s.Faults.DecodeFailRate,
		s.Faults.AllocBudgetBytes, s.Faults.Seed)
	r.add("")
	if err != nil {
		r.add("RUN FAILED: %v", err)
	} else {
		r.add("run completed in %v despite injected faults", elapsed.Round(time.Millisecond))
	}
	r.add("%s", report)
	r.add("")

	counts := report.FaultCounts
	injected := 0
	for k, c := range counts {
		if k != faults.CheckpointTruncate && k != faults.CheckpointCorrupt {
			injected += c
		}
	}
	// One attempt can take several faults: retries are at most the total.
	detected := report.Robust.CRCFailures == int64(counts[faults.BitFlip])
	reconciled := detected &&
		report.Robust.EncodeFailures == int64(counts[faults.EncodeFail]) &&
		report.Robust.DecodeFailures == int64(counts[faults.DecodeFail]) &&
		report.Robust.AllocFailures == int64(counts[faults.AllocFail]) &&
		report.Retries <= injected

	r.add("cross-check vs injector log:")
	r.add("  bit flips injected %d, CRC-detected %d  -> %s",
		counts[faults.BitFlip], report.Robust.CRCFailures, okNot(detected))
	r.add("  encode/decode/alloc failures injected %d/%d/%d, surfaced %d/%d/%d; %d retries for %d faults  -> %s",
		counts[faults.EncodeFail], counts[faults.DecodeFail], counts[faults.AllocFail], report.Robust.EncodeFailures,
		report.Robust.DecodeFailures, report.Robust.AllocFailures, report.Retries, injected, okNot(reconciled))
	if len(recs) > 0 {
		last := recs[len(recs)-1]
		r.add("  final accuracy loss %.3f (diverged: %v)", last.AccuracyLoss, train.Diverged(recs, s.Classes))
		r.set("robust/accuracy_loss", last.AccuracyLoss)
	}
	r.set("robust/injected", float64(injected))
	r.set("robust/retries", float64(report.Retries))
	r.set("robust/crc_detected", float64(report.Robust.CRCFailures))
	r.set("robust/sparse_fallbacks", float64(report.Robust.SparseFallbacks))
	if reconciled && err == nil {
		r.set("robust/ok", 1)
	} else {
		r.set("robust/ok", 0)
	}
	return r
}

func okNot(ok bool) string {
	if ok {
		return "OK"
	}
	return "MISMATCH"
}
