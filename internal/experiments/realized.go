package experiments

// Realised-footprint experiment: the paper's Figures 8 and 17 measured
// instead of predicted. Three pooled steps per network and encoding
// configuration; the planner's static (CNTK groups) and dynamic FP32
// footprints, and Fig 17's "optimized" plan that drops every decoded staging
// buffer, are printed next to the executor arena's observed peak of
// requested bytes and the slab it packed its recorded step into, the
// planned stash bytes next to the executor's StashBytes — with, between
// them, the plan re-evaluated at each stash's measured sparsity, which
// splits the gap into the planner's sparsity estimate and the containers'
// layout — then the ratio realised.

import (
	"gist/internal/bufpool"
	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/liveness"
	"gist/internal/memplan"
	"gist/internal/networks"
	"gist/internal/train"
)

// ExtRealized measures the footprint pooled training realises.
func ExtRealized() *Result {
	r := &Result{ID: "realized", Title: "Planned vs realised footprint of pooled training (Figs 8/17, measured)"}
	nets := []struct {
		name  string
		build func() *graph.Graph
	}{
		{"TinyCNN", func() *graph.Graph { return networks.TinyCNN(8, 4) }},
		{"TinyVGG", func() *graph.Graph { return networks.TinyVGG(2, 8) }},
		{"ResNetCIFAR-20", func() *graph.Graph { return networks.ResNetCIFAR(4, 20) }},
	}
	lossless, lossy := encoding.Lossless(), encoding.LossyLossless(floatenc.FP16)
	encs := []struct {
		name string
		cfg  *encoding.Config
	}{{"none", nil}, {"lossless", &lossless}, {"lossy-fp16", &lossy}}

	r.add("%-15s %-10s %11s %11s %11s %11s %11s %11s %11s %11s %11s %6s", "network", "encodings",
		"static", "plan FP32", "optimized", "peak FP32", "slab", "plan stash", "plan@meas", "StashBytes", "held enc", "MFR")
	for _, net := range nets {
		var baseline int64
		for _, enc := range encs {
			g := net.build()
			// Planned: the assigned containers plus the maps stashed raw, and
			// PlanDynamic over the buffers that are pooled tensors at runtime.
			var a *encoding.Analysis
			var planStash int64
			if enc.cfg != nil {
				a = encoding.Analyze(g, *enc.cfg)
				for _, as := range a.ByNode {
					planStash += as.EncodedBytes
				}
			}
			tl := graph.BuildTimeline(g)
			bufs := liveness.Analyze(g, tl, liveness.Options{Analysis: a})
			raw := liveness.TotalByClass(bufs)[graph.ClassStashedFmap]
			planStash += raw
			pooled := memplan.PooledBuffers(bufs)
			static := memplan.PlanStatic(pooled).TotalBytes
			planned := memplan.PlanDynamic(pooled)
			optimized := memplan.PlanDynamic(memplan.PooledBuffers(
				liveness.Analyze(g, tl, liveness.Options{Analysis: a, ElideDecoded: true})))
			e := train.NewExecutor(g, train.Options{Seed: 7, Encodings: a, Pool: bufpool.New()})
			e.SetSparsityProbe(true)
			in := g.InputNodes()[0].OutShape
			d := train.NewDataset(4, in[1], in[2], 0.4, 8)
			for i := 0; i < 3; i++ {
				x, labels := d.Batch(in[0])
				e.Step(x, labels, 0.01)
			}
			st, held, stash := e.ArenaStats(), e.StashStore().Stats().HotPeakBytes, e.StashBytes
			// The plan at the last step's measured sparsities: what the
			// assigned containers would hold if the planner had known them.
			planMeas, measured := raw, e.StashSparsities()
			if a != nil {
				for id, as := range a.ByNode {
					planMeas += encoding.PlanBytes(as.Tech, as.Node.OutShape.NumElements(), measured[id], as.Format)
				}
			}
			e.Close()
			if enc.cfg == nil {
				baseline = st.PeakLiveBytes
			}
			mfr := memplan.MFR(baseline, st.PeakLiveBytes+held)
			r.set(net.name+"/"+enc.name+"/planned-static", float64(static))
			r.set(net.name+"/"+enc.name+"/planned-peak", float64(planned))
			r.set(net.name+"/"+enc.name+"/optimized-peak", float64(optimized))
			r.set(net.name+"/"+enc.name+"/observed-peak", float64(st.PeakLiveBytes))
			r.set(net.name+"/"+enc.name+"/slab", float64(st.HeldBytes+st.InUseBytes))
			r.set(net.name+"/"+enc.name+"/mfr", mfr)
			r.set(net.name+"/"+enc.name+"/plan-stash", float64(planStash))
			r.set(net.name+"/"+enc.name+"/plan-at-measured", float64(planMeas))
			r.set(net.name+"/"+enc.name+"/stash-bytes", float64(stash))
			r.add("%-15s %-10s %11d %11d %11d %11d %11d %11d %11d %11d %11d %5.2fx", net.name, enc.name,
				static, planned, optimized, st.PeakLiveBytes, st.HeldBytes+st.InUseBytes, planStash, planMeas, stash, held, mfr)
		}
	}
	if mfr := r.Values["ResNetCIFAR-20/lossy-fp16/mfr"]; mfr > 0 {
		r.add("")
		r.add("ResNetCIFAR-20 lossy-fp16 MFR %.2fx; about 1.75x would be the bound, with peak FP32 at optimized", mfr)
	}
	r.add("")
	r.add("(static: the CNTK groups over plan FP32's buffers; plan FP32 stages only the stashes the executor decodes,")
	r.add(" DPR's: the SSDC and ZVC stashes Conv, FC and ReLU read as stored have no decoded buffer; optimized: plan")
	r.add(" FP32 with no decoded staging buffer at all, Fig 17's optimized software, so it differs from plan FP32 only")
	r.add(" by the DPR targets; peak FP32: the executor arena's high-water mark of requested bytes; slab: the")
	r.add(" arena's recorded step packed by offset, what it holds; plan@meas: plan stash with each assigned stash priced")
	r.add(" at its last step's measured sparsity, so StashBytes - plan@meas is the containers' layout error and")
	r.add(" plan@meas - plan stash the planner's sparsity-estimate error; held enc: the store's peak of encoded containers,")
	r.add(" outside the arena; MFR: unencoded peak / (peak + held). Untrained weights, 3 steps, minibatch 2-8: how the")
	r.add(" ratio scales with depth and minibatch is ROADMAP item 5(c)'s search, not this table.)")
	return r
}
