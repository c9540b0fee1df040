package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"

	"gist/internal/telemetry"
)

// trainSamples is everything one run of a train workload collected.
type trainSamples struct {
	setups, firsts, newTrainers []float64
	stepMS, tracedStepMS        []float64
	// The same at nominal CPU speed (yardstick.go): what the gated timings
	// are estimated from.
	setupsCal, stepCalMS, tracedStepCalMS []float64
	epochs                                []epochResult
	traced                                []tracedResult
	mem                                   memoryResult
}

// runTrain runs one train workload: extra set-ups and cold starts, then
// whole epochs until the run's seconds are spent, then the memory pass.
// Traced, untraced and traced epochs alternate and the probes follow.
func runTrain(spec *trainSpec, trace bool, opt options, workDir string, res *runResult) error {
	r, err := newTrainRun(spec, opt.seed, opt.scale*traceScale(trace), workDir)
	if err != nil {
		return err
	}
	var s trainSamples
	note := func(ep epochResult) {
		s.setups = append(s.setups, ep.setupS)
		s.setupsCal = append(s.setupsCal, ep.setupCalS)
		s.firsts = append(s.firsts, ep.firstStepMS)
		s.newTrainers = append(s.newTrainers, ep.newTrainerMS)
		res.Attempted += warmupSteps
		res.Failed += ep.failed
	}
	if trace {
		for i := 0; i < max(coldStarts/opt.scale, 1); i++ {
			cold := r.setupOnly(1)
			s.firsts = append(s.firsts, cold.firstStepMS)
			res.Attempted++
			res.Failed += cold.failed
		}
	} else {
		for i := 0; i < max(setupRepeats/opt.scale, 1); i++ {
			note(r.setupOnly(warmupSteps))
		}
	}
	for clock := newEpochClock(opt.seconds); clock.another(); {
		ep := r.epoch()
		note(ep)
		res.Attempted += r.steps
		s.epochs = append(s.epochs, ep)
		s.stepMS = append(s.stepMS, ep.stepMS...)
		s.stepCalMS = append(s.stepCalMS, ep.stepCalMS...)
		if trace {
			tr := r.tracedEpoch()
			res.Attempted += warmupSteps + r.steps
			res.Failed += tr.failed
			s.traced = append(s.traced, tr)
			for i, wall := range tr.rec.durationsMS("step") {
				s.tracedStepMS = append(s.tracedStepMS, wall)
				s.tracedStepCalMS = append(s.tracedStepCalMS, calibrated(wall, tr.refMS[i], tr.refMS[i+1]))
			}
		}
	}
	s.mem = r.memoryPass()
	res.Attempted += memorySteps
	res.Failed += s.mem.failed

	r.check(&s, res)
	first := s.epochs[0]
	res.Info["epochs"] = len(s.epochs)
	res.Info["steps_per_epoch"] = r.steps
	res.Info["step_ms"] = describe(s.stepCalMS)
	res.Info["step_wall_ms"] = describe(s.stepMS)
	res.Info["first_step_ms"] = describe(s.firsts)
	res.Info["setup_wall_s"] = median(s.setups)
	res.Info["speed"] = speedOf(s.stepMS, s.stepCalMS)
	res.Info["final_loss"] = mean(first.losses[len(first.losses)-10:])
	res.Info["mean_loss"] = mean(first.losses)
	res.Info["weights_hash"] = fmt.Sprintf("%016x", first.hash)
	if spec.spill {
		res.Info["stash_budget_bytes"] = r.budget
	}

	if !trace {
		var allocs float64
		for _, ep := range s.epochs {
			allocs += ep.allocs
		}
		res.Info["steps_per_s"] = 1e3 / mean(s.stepMS)
		res.Metrics = fill(endToEnd, map[string]float64{
			"step_ms_p50":      median(s.stepCalMS),
			"allocs_per_step":  ratio(allocs, float64(len(s.stepMS))),
			"live_heap_bytes":  float64(s.mem.liveHeap),
			"stash_held_bytes": float64(first.stashBytes),
			"setup_s":          median(s.setupsCal),
		})
		return nil
	}
	res.Metrics = fill(perLayer, r.perLayer(&s, res))
	tracePath := filepath.Join(opt.outDir, "trace_"+spec.name+".json")
	res.Info["trace_file"] = tracePath
	return s.traced[len(s.traced)-1].rec.writeChrome(tracePath)
}

// check applies the output checks of a train run.
func (r *trainRun) check(s *trainSamples, res *runResult) {
	first, last := s.epochs[0], s.epochs[len(s.epochs)-1]
	// Training must not diverge: the mean loss of the last ten steps stays
	// finite and at or under where it started (or chance, for the seeds on
	// which a batch of 2-4 collapses the net to guessing; README.md says how
	// often). The final loss itself is reported, ungated.
	finalLoss, firstLoss := mean(first.losses[len(first.losses)-10:]), mean(first.losses[:10])
	res.check("no_divergence", finalLoss <= 1.05*max(firstLoss, chanceLoss), // false for NaN
		"mean loss of the last 10 steps %.4f, of the first 10 %.4f, of guessing %.4f", finalLoss, firstLoss, chanceLoss)

	ref := r.reference()
	res.Attempted += len(ref.losses)
	res.check("forward_exact", ref.losses[0] == first.warmupLoss0,
		"first-step loss %v, a plain executor's %v: the forward pass must be exact under every encoding", first.warmupLoss0, ref.losses[0])
	if !r.spec.encoded {
		res.check("pooled_bit_identical", ref.hash == first.hashEarly,
			"weights after %d steps: %016x on a plain executor, %016x pooled", memorySteps, ref.hash, first.hashEarly)
	}

	differs := 0
	for _, ep := range s.epochs {
		if ep.hash != first.hash {
			differs++
		}
	}
	res.check("epochs_identical", differs == 0, "%d of %d epochs ended at other weights than epoch 0 (%016x)", differs, len(s.epochs), first.hash)
	res.check("memory_loop_faithful", s.mem.hash == first.hashEarly,
		"phase-driven weights after %d steps %016x, Step-driven %016x", memorySteps, s.mem.hash, first.hashEarly)
	for _, tr := range s.traced {
		res.check("traced_loop_faithful", tr.hash == first.hash, "phase-driven traced epoch ended at %016x, Step-driven at %016x", tr.hash, first.hash)
	}

	if r.spec.spill {
		ram := *r
		ram.budget, ram.spillDir = 0, ""
		ram.batches = r.batches[:memorySteps]
		ramHash := ram.epoch().hash
		res.Attempted += memorySteps
		res.check("spill_bit_identical", ramHash == first.hashEarly,
			"weights after %d steps: %016x without a budget, %016x with", memorySteps, ramHash, first.hashEarly)
		res.check("spill_evicts", last.store.Evictions > 0, "no evictions at budget %d", r.budget)
		res.check("spill_within_budget", last.store.HotPeakBytes <= r.budget, "hot peak %d over budget %d", last.store.HotPeakBytes, r.budget)
		res.check("spill_files_removed", r.spillFilesLeft() == 0, "%d gist-spill-* files left after Close", r.spillFilesLeft())
	}
}

// perLayer assembles the per-layer metrics of a traced train run: phase
// spans and sink counters from the traced epochs, pool and store counters
// from the untraced ones, then the probes.
func (r *trainRun) perLayer(s *trainSamples, res *runResult) map[string]float64 {
	vals := map[string]float64{}
	var fwd, bwd, sgd []float64
	for _, tr := range s.traced {
		fwd = append(fwd, tr.rec.durationsMS("forward")...)
		bwd = append(bwd, tr.rec.durationsMS("backward")...)
		sgd = append(sgd, tr.rec.durationsMS("sgd")...)
	}
	sum := func(xs []float64) float64 { return mean(xs) * float64(len(xs)) }
	phaseSum, stepSum := sum(fwd)+sum(bwd)+sum(sgd), sum(s.tracedStepMS)
	res.check("phases_cover_step", math.Abs(phaseSum-stepSum) <= 0.05*stepSum,
		"phase spans sum to %.1f ms, step spans to %.1f ms", phaseSum, stepSum)
	vals["train.forward_ms_p10"] = percentile(fwd, 0.10)
	vals["train.backward_ms_p10"] = percentile(bwd, 0.10)
	vals["train.sgd_ms_p10"] = percentile(sgd, 0.10)
	vals["train.first_step_ms_p10"] = percentile(s.firsts, 0.10)
	vals["train.new_trainer_ms"] = median(s.newTrainers)
	res.Info["forward_ms"], res.Info["backward_ms"], res.Info["sgd_ms"] = describe(fwd), describe(bwd), describe(sgd)
	res.Info["traced_step_wall_ms"] = describe(s.tracedStepMS)

	stepP10 := percentile(s.stepMS, 0.10)
	lastTr := s.traced[len(s.traced)-1]
	steps := float64(warmupSteps + r.steps)
	m := lastTr.sink.Gather()
	vals["train.encode_ms_mean"] = m.Histograms["train.encode.ns"].Mean() / 1e6
	vals["train.overlap_hit_ratio"] = ratio(float64(m.Counters["train.overlap.hits"]),
		float64(m.Counters["train.overlap.hits"]+m.Counters["train.overlap.misses"]))
	vals["parallel.foreach_calls_per_step"] = float64(m.Counters["pool.foreach.calls"]) / steps
	vals["parallel.busy_ms_per_step"] = float64(m.Histograms["pool.busy.ns"].Sum) / 1e6 / steps
	vals["parallel.saturated_per_step"] = float64(m.Counters["pool.saturated"]) / steps
	vals["telemetry.trace_dropped"] = float64(lastTr.sink.TraceDropped())
	// Both sides at nominal speed: the traced and the untraced epochs
	// alternate, and the box's clock may move between them.
	plain := median(s.stepCalMS)
	vals["telemetry.trace_overhead_pct"] = 100 * ratio(median(s.tracedStepCalMS)-plain, plain)
	if !r.spec.encoded {
		// The bypass the dense baseline exists for: not one codec or store
		// call may happen on it.
		calls := stashPathCalls(m)
		res.check("dense_bypasses_stash_path", calls == 0, "%d codec/store events on a workload with no encodings", calls)
	}

	last := s.epochs[len(s.epochs)-1]
	gets := float64(last.poolTimed.Hits + last.poolTimed.Misses)
	vals["bufpool.hit_ratio"] = ratio(float64(last.poolTimed.Hits), gets)
	vals["bufpool.gets_per_step"] = gets / float64(r.steps)
	vals["bufpool.held_bytes"] = float64(last.pool.HeldBytes)
	vals["bufpool.inuse_after_forward_bytes"] = float64(s.mem.inUseAfterForward)

	st := last.store
	vals["stashstore.evictions_per_step"] = float64(st.Evictions) / steps
	vals["stashstore.spill_write_bytes_per_step"] = float64(st.SpillWritten) / steps
	vals["stashstore.spill_read_bytes_per_step"] = float64(st.SpillRead) / steps
	vals["stashstore.hot_peak_bytes"] = float64(st.HotPeakBytes)
	vals["stashstore.hit_ratio"] = ratio(float64(st.Hits), float64(st.Hits+st.Misses))

	r.probeTrain(vals)
	vals["memplan.observed_over_predicted"] = ratio(float64(s.mem.liveHeap), vals["memplan.predicted_bytes"])
	// Shares of the step a change to a layer can reach: the replayed best
	// times over the untraced fast-decile step.
	vals["layers.share_of_step"] = ratio(vals["layers.conv_fwd_ms"]+vals["layers.conv_bwd_ms"]+vals["layers.fc_ms"]+vals["layers.relu_pool_ms"], stepP10)
	stashPath := vals["encoding.encode_ms"] + vals["encoding.decode_ms"] + vals["encoding.seal_verify_ms"] +
		vals["encoding.marshal_ms"] + vals["encoding.unmarshal_ms"] + vals["stashstore.put_ms"] + vals["stashstore.fetch_ms"] +
		vals["bufpool.gets_per_step"]*vals["bufpool.get_recycle_ns"]/1e6
	vals["encoding.share_of_step"] = ratio(stashPath, stepP10)
	return vals
}

// stashPathCalls counts codec and stash-store activity in a sink snapshot.
func stashPathCalls(m telemetry.Metrics) int64 {
	var n int64
	for name, v := range m.Counters {
		if strings.HasPrefix(name, "codec.") || strings.HasPrefix(name, "stash.store.") {
			n += v
		}
	}
	for name, h := range m.Histograms {
		if strings.HasPrefix(name, "codec.") || strings.HasPrefix(name, "stash.store.") {
			n += h.Count
		}
	}
	return n
}
