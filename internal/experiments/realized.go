package experiments

// Realised-footprint experiment: the paper's Figures 8 and 17 measured
// instead of predicted. Three pooled steps per network and encoding
// configuration on a private buffer pool; the planner's dynamic FP32 peak is
// printed next to the pool's observed peak of requested bytes, the planned
// stash bytes next to the executor's StashBytes, then the ratio realised.

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

	r.add("%-15s %-10s %11s %11s %11s %11s %11s %11s %6s", "network", "encodings",
		"plan FP32", "peak FP32", "plan stash", "StashBytes", "held enc", "pool", "MFR")
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
			bufs := liveness.Analyze(g, graph.BuildTimeline(g), liveness.Options{Analysis: a})
			planStash += liveness.TotalByClass(bufs)[graph.ClassStashedFmap]
			planned := memplan.PlanDynamic(memplan.PooledBuffers(bufs))
			pool := bufpool.New()
			e := train.NewExecutor(g, train.Options{Seed: 7, Encodings: a, Pool: pool})
			in := g.InputNodes()[0].OutShape
			d := train.NewDataset(4, in[1], in[2], 0.4, 8)
			for i := 0; i < 3; i++ {
				x, labels := d.Batch(in[0])
				e.Step(x, labels, 0.01)
			}
			st, held, stash := pool.Stats(), e.StashStore().Stats().HotPeakBytes, e.StashBytes
			e.Close()
			if enc.cfg == nil {
				baseline = st.PeakLiveBytes
			}
			mfr := memplan.MFR(baseline, st.PeakLiveBytes+held)
			r.set(net.name+"/"+enc.name+"/planned-peak", float64(planned))
			r.set(net.name+"/"+enc.name+"/observed-peak", float64(st.PeakLiveBytes))
			r.set(net.name+"/"+enc.name+"/mfr", mfr)
			r.add("%-15s %-10s %11d %11d %11d %11d %11d %11d %5.2fx", net.name, enc.name,
				planned, st.PeakLiveBytes, planStash, stash, held, st.HeldBytes+st.InUseBytes, mfr)
		}
	}
	r.add("")
	r.add("(peak FP32: the pool's high-water mark of requested bytes; held enc: the store's peak of encoded")
	r.add(" containers, outside the pool; MFR: unencoded peak / (peak + held). Untrained weights, 3 steps, minibatch")
	r.add(" 2-8: how the ratio scales with depth and minibatch is ROADMAP item 5(c)'s search, not this table.)")
	return r
}
