package main

import (
	"path/filepath"
)

// runServe runs the serve workload: extra set-ups, then whole epochs (a
// fresh server draining the job list, then scrapes) until the run's seconds
// are spent. Traced, untraced and traced epochs alternate.
func runServe(trace bool, opt options, workDir string, res *runResult) error {
	r := newServeRun(opt.seed, opt.scale*traceScale(trace), workDir)
	var setups, setupsCal []float64
	if !trace {
		for i := 0; i < max((setupRepeats+coldStarts)/opt.scale, 1); i++ {
			ls, err := r.start(false)
			if err != nil {
				return err
			}
			setups, setupsCal = append(setups, ls.setupS), append(setupsCal, ls.setupCalS)
			if err := ls.stop(); err != nil {
				return err
			}
		}
	}
	var plain, traced []serveEpoch
	for clock := newEpochClock(opt.seconds); clock.another(); {
		ep, err := r.epoch(false)
		if err != nil {
			return err
		}
		setups, setupsCal = append(setups, ep.setupS), append(setupsCal, ep.setupCalS)
		plain = append(plain, ep)
		if trace {
			if ep, err = r.epoch(true); err != nil {
				return err
			}
			traced = append(traced, ep)
		}
	}

	a := r.aggregate(plain, res)
	res.Info["epochs"] = len(plain)
	res.Info["jobs_per_epoch"] = len(r.specs)
	res.Info["mem_budget_bytes"] = r.budget
	res.Info["step_ms"] = describe(a.jobStepCalMS)
	res.Info["step_wall_ms"] = describe(a.stepMS)
	res.Info["first_step_ms"] = describe(a.firstMS)
	res.Info["setup_wall_s"] = median(setups)
	res.Info["speed"] = speedOf(a.jobStepMS, a.jobStepCalMS)
	res.Info["scrape_ms"] = describe(a.scrapeMS)
	res.Info["jobs_per_s"] = ratio(a.jobs, a.wallS)
	res.Info["queued"], res.Info["degraded"] = a.queued, a.degraded
	res.Info["mean_loss"] = mean(a.losses)
	res.Info["steps_per_s"] = ratio(a.steps, a.wallS)

	if !trace {
		res.Metrics = fill(endToEnd, map[string]float64{
			"step_ms_p50":      median(a.jobStepCalMS),
			"allocs_per_step":  ratio(a.allocs, a.steps),
			"live_heap_bytes":  median(a.liveHeaps),
			"stash_held_bytes": mean(a.heldBytes),
			"setup_s":          median(setupsCal),
		})
		return nil
	}

	t := r.aggregate(traced, res)
	lastEp := traced[len(traced)-1]
	vals := map[string]float64{
		"server.first_step_ms_p10":   percentile(t.firstMS, 0.10),
		"server.submit_ms_p10":       percentile(t.submitMS, 0.10),
		"server.stream_open_ms_p10":  percentile(t.streamOpenMS, 0.10),
		"server.queue_wait_ms_p50":   percentile(t.queueWaitMS, 0.50),
		"server.list_ms_p10":         percentile(t.listMS, 0.10),
		"server.jobs_per_s":          ratio(t.jobs, t.wallS),
		"server.admitted":            float64(lastEp.serverSink["server.jobs.admitted"]),
		"server.degraded":            float64(lastEp.serverSink["server.jobs.degraded"]),
		"server.rejected":            float64(lastEp.serverSink["server.jobs.rejected"]),
		"server.sse_dropped":         float64(lastEp.serverSink["server.sse.dropped"]),
		"server.queued":              t.queued / float64(len(traced)),
		"server.peak_reserved_bytes": float64(lastEp.health.PeakBytes),
		"promexport.scrape_ms_p10":   percentile(t.scrapeMS, 0.10),
		"promexport.scrape_bytes":    float64(lastEp.scrapeBytes),
		"promexport.bytes_per_job":   ratio(float64(lastEp.scrapeBytes), float64(len(r.specs))),
	}
	// Both sides at nominal speed: traced and untraced epochs alternate, and
	// the box's clock may move between them.
	plainStep := median(a.jobStepCalMS)
	vals["telemetry.trace_overhead_pct"] = 100 * ratio(median(t.jobStepCalMS)-plainStep, plainStep)
	res.Info["traced_step_wall_ms"] = describe(t.stepMS)
	res.Info["submit_ms"], res.Info["stream_open_ms"] = describe(t.submitMS), describe(t.streamOpenMS)
	if err := probeServe(workDir, vals); err != nil {
		return err
	}
	tenants := map[string]string{}
	for _, j := range lastEp.jobs {
		tenants[j.id] = j.tenant
	}
	if err := probePromexport(lastEp.jobSinks, tenants, vals); err != nil {
		return err
	}
	res.Metrics = fill(perLayer, vals)

	rec := newRecorderAt(lastEp.jobs[0].posted)
	lastEp.spans(rec)
	tracePath := filepath.Join(opt.outDir, "trace_"+serveName+".json")
	res.Info["trace_file"] = tracePath
	return rec.writeChrome(tracePath)
}

// serveTotals pools the client-side observations of a set of epochs.
type serveTotals struct {
	// jobStepMS is each job's median step interval and jobStepCalMS the
	// same at nominal CPU speed: the gated step time is the median of the
	// latter over jobs, so it reads the typical job of the mix whichever
	// jobs happened to run beside an idle slot.
	jobStepMS, jobStepCalMS                              []float64
	stepMS, firstMS, submitMS, streamOpenMS, queueWaitMS []float64
	scrapeMS, listMS, liveHeaps, heldBytes, losses       []float64
	jobs, steps, wallS, allocs, queued, degraded         float64
}

// aggregate pools epochs and adds their operations and output checks to the
// run.
func (r *serveRun) aggregate(eps []serveEpoch, res *runResult) serveTotals {
	var t serveTotals
	for _, ep := range eps {
		t.wallS += ep.drainWallS
		t.allocs += ep.allocs
		t.liveHeaps = append(t.liveHeaps, float64(ep.liveHeap))
		t.scrapeMS = append(t.scrapeMS, ep.scrapeMS...)
		t.listMS = append(t.listMS, ep.listMS...)
		rejected := 0
		for i, j := range ep.jobs {
			t.jobs++
			res.Attempted++
			if j.rejected {
				rejected++
			}
			if j.err != nil {
				res.Failed++
				res.check("job_completed", false, "job %d (%s): %v", i, j.id, j.err)
				continue
			}
			t.steps += float64(r.specs[i].Steps)
			t.submitMS = append(t.submitMS, ms(j.accepted.Sub(j.posted).Nanoseconds()))
			t.streamOpenMS = append(t.streamOpenMS, ms(j.streamOpen.Sub(j.accepted).Nanoseconds()))
			t.firstMS = append(t.firstMS, ms(j.firstStep.Sub(j.posted).Nanoseconds()))
			t.stepMS = append(t.stepMS, j.stepMS...)
			p50 := median(j.stepMS)
			t.jobStepMS, t.jobStepCalMS = append(t.jobStepMS, p50), append(t.jobStepCalMS, calibrated(p50, j.refBefore, j.refAfter))
			t.heldBytes = append(t.heldBytes, float64(j.heldBytes))
			t.losses = append(t.losses, j.meanLoss)
			if j.queued {
				t.queued++
				t.queueWaitMS = append(t.queueWaitMS, ms(j.firstStep.Sub(j.accepted).Nanoseconds()))
			}
			if j.degraded {
				t.degraded++
			}
		}
		res.Attempted += r.scrapes
		res.Failed += ep.scrapeErrs
		res.check("scrapes_parse", ep.scrapeErrs == 0, "%d of %d scrapes failed or did not parse under the strict parser", ep.scrapeErrs, r.scrapes)
		res.check("budget_sized", ep.jobs[0].footprint == r.noneFootprint,
			"an unencoded job reserves %d bytes, the budget was sized for %d", ep.jobs[0].footprint, r.noneFootprint)
		res.check("none_rejected", rejected == 0, "%d jobs rejected", rejected)
	}
	res.check("some_job_queued", t.queued > 0, "no job queued at budget %d", r.budget)
	res.check("some_job_degraded", t.degraded > 0, "no job degraded at budget %d", r.budget)
	return t
}
