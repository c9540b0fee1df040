package experiments

// Memory-footprint experiments: Figures 1, 3, 8, 10, 13 and 17 plus
// Table I. All run the Schedule Builder at full ImageNet shapes; no tensor
// data is materialized, so even VGG16 at minibatch 64 plans in
// milliseconds.

import (
	"gist/internal/core"
	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/graph"
)

// Fig1 reproduces the memory breakdown across data-structure classes. The
// decomposition follows what is physically resident under static
// allocation: weights, weight gradients and stashed feature maps each hold
// dedicated memory for (most of) the minibatch, while immediately consumed
// feature maps, gradient maps and workspace live in a shared transient
// pool whose size is whatever the allocator's sharing leaves on top.
func Fig1(mb int) *Result {
	r := &Result{ID: "fig1", Title: "Memory footprint breakdown by data structure (GB)"}
	r.add("%-10s %8s %8s %8s %10s %8s", "network",
		"weights", "wgrads", "stashed", "transient", "total")
	for _, net := range suite(mb) {
		p := core.MustBuild(core.Request{
			Graph: net.G, IncludeWeights: true, IncludeWorkspace: true,
		})
		weights := p.RawByClass[graph.ClassWeights]
		wgrads := p.RawByClass[graph.ClassWeightGrads]
		stashed := p.RawByClass[graph.ClassStashedFmap]
		transient := p.Static.TotalBytes - weights - wgrads - stashed
		if transient < 0 {
			transient = 0
		}
		r.set(net.Name+"/weights", gb(weights))
		r.set(net.Name+"/wgrads", gb(wgrads))
		r.set(net.Name+"/stashed feature map", gb(stashed))
		r.set(net.Name+"/transient", gb(transient))
		r.set(net.Name+"/total", gb(p.Static.TotalBytes))
		r.add("%-10s %8.2f %8.2f %8.2f %10.2f %8.2f", net.Name,
			gb(weights), gb(wgrads), gb(stashed), gb(transient), gb(p.Static.TotalBytes))
	}
	r.add("(stashed feature maps + the transient immediates/gradients pool dominate;")
	r.add(" weights are a small fraction — the opposite of inference)")
	return r
}

// Fig3 reproduces the stashed-feature-map breakdown into the paper's
// pattern categories: ReLU outputs feeding a pool (Binarize territory),
// ReLU/Pool outputs feeding a conv (SSDC territory) and the rest (DPR).
func Fig3(mb int) *Result {
	r := &Result{ID: "fig3", Title: "Stashed feature maps by layer category (fraction of stashed bytes)"}
	r.add("%-10s %10s %10s %10s", "network", "ReLU-Pool", "ReLU-Conv", "Others")
	for _, net := range suite(mb) {
		// Classify each baseline-stashed output by the lossless pattern
		// analysis: Binarize assignments are ReLU-Pool, SSDC are
		// ReLU/Pool-Conv, the rest are Others.
		a := encoding.Analyze(net.G, encoding.Config{Binarize: true, SSDC: true, FCIsConvLike: true,
			Sparsity: func(*graph.Node) float64 { return 1 }}) // classify regardless of sparsity
		var reluPool, reluConv, others int64
		for _, n := range net.G.Nodes {
			if !graph.OutputStashed(n) {
				continue
			}
			bytes := n.OutShape.Bytes()
			switch {
			case a.ByNode[n.ID] != nil && a.ByNode[n.ID].Tech == encoding.Binarize:
				reluPool += bytes
			case a.ByNode[n.ID] != nil && a.ByNode[n.ID].Tech == encoding.SSDC:
				reluConv += bytes
			default:
				others += bytes
			}
		}
		total := reluPool + reluConv + others
		if total == 0 {
			continue
		}
		fp := func(x int64) float64 { return float64(x) / float64(total) }
		r.set(net.Name+"/relu-pool", fp(reluPool))
		r.set(net.Name+"/relu-conv", fp(reluConv))
		r.set(net.Name+"/others", fp(others))
		r.add("%-10s %9.0f%% %9.0f%% %9.0f%%", net.Name,
			100*fp(reluPool), 100*fp(reluConv), 100*fp(others))
	}
	return r
}

// Table1 reproduces the paper's technique summary.
func Table1() *Result {
	r := &Result{ID: "table1", Title: "Summary of Gist techniques"}
	r.add("%-26s %-34s %s", "Target data structure", "Technique", "Type")
	for _, row := range core.TableI() {
		r.add("%-26s %-34s %s", row.Target, row.Technique, row.Kind)
	}
	return r
}

// Fig8 reproduces the end-to-end Memory Footprint Ratio against the CNTK
// baseline for the lossless configuration and for lossless+DPR at the
// paper's per-network formats.
func Fig8(mb int) *Result {
	r := &Result{ID: "fig8", Title: "End-to-end MFR vs CNTK baseline (static allocation)"}
	r.add("%-10s %10s %16s %8s", "network", "lossless", "lossless+lossy", "format")
	var sumLL, sumLY float64
	n := 0
	for _, net := range suite(mb) {
		base := core.MustBuild(core.Request{Graph: net.G})
		ll := core.MustBuild(core.Request{Graph: net.G, Encodings: losslessCfg()}).MFR(base)
		f := PaperDPRFormat(net.Name)
		ly := core.MustBuild(core.Request{Graph: net.G, Encodings: lossyCfg(net.Name)}).MFR(base)
		r.set(net.Name+"/lossless", ll)
		r.set(net.Name+"/lossy", ly)
		r.add("%-10s %9.2fx %15.2fx %8v", net.Name, ll, ly, f)
		sumLL += ll
		sumLY += ly
		n++
	}
	r.set("average/lossless", sumLL/float64(n))
	r.set("average/lossy", sumLY/float64(n))
	r.add("%-10s %9.2fx %15.2fx", "average", sumLL/float64(n), sumLY/float64(n))
	r.add("(paper: lossless avg 1.4x; lossless+lossy avg 1.8x, up to 2x)")
	return r
}

// Fig10 isolates each lossless encoding against the investigation baseline
// (stashed feature maps excluded from sharing): SSDC alone, Binarize alone,
// both, and both plus inplace.
func Fig10(mb int) *Result {
	r := &Result{ID: "fig10", Title: "Lossless encodings in isolation — MFR vs investigation baseline"}
	r.add("%-10s %8s %9s %8s %9s", "network", "SSDC", "Binarize", "both", "+inplace")
	configs := []struct {
		key string
		cfg encoding.Config
	}{
		{"ssdc", encoding.Config{SSDC: true, FCIsConvLike: true}},
		{"binarize", encoding.Config{Binarize: true}},
		{"both", encoding.Config{SSDC: true, Binarize: true, FCIsConvLike: true}},
		{"inplace", encoding.Config{SSDC: true, Binarize: true, Inplace: true, FCIsConvLike: true}},
	}
	for _, net := range suite(mb) {
		base := core.MustBuild(core.Request{Graph: net.G, InvestigationBaseline: true})
		vals := make([]float64, len(configs))
		for i, c := range configs {
			p := core.MustBuild(core.Request{
				Graph: net.G, Encodings: c.cfg, InvestigationBaseline: true,
			})
			vals[i] = p.MFR(base)
			r.set(net.Name+"/"+c.key, vals[i])
		}
		r.add("%-10s %7.2fx %8.2fx %7.2fx %8.2fx", net.Name, vals[0], vals[1], vals[2], vals[3])
	}
	return r
}

// Fig13 reproduces the DPR-only footprint study against the investigation
// baseline: FP16 and the network's smallest accuracy-safe format.
func Fig13(mb int) *Result {
	r := &Result{ID: "fig13", Title: "DPR MFR vs investigation baseline"}
	r.add("%-10s %8s %16s", "network", "FP16", "smallest (fmt)")
	for _, net := range suite(mb) {
		base := core.MustBuild(core.Request{Graph: net.G, InvestigationBaseline: true})
		fp16 := core.MustBuild(core.Request{
			Graph: net.G, Encodings: encoding.Config{DPR: floatenc.FP16},
			InvestigationBaseline: true,
		}).MFR(base)
		small := PaperDPRFormat(net.Name)
		smallest := core.MustBuild(core.Request{
			Graph: net.G, Encodings: encoding.Config{DPR: small},
			InvestigationBaseline: true,
		}).MFR(base)
		r.set(net.Name+"/fp16", fp16)
		r.set(net.Name+"/smallest", smallest)
		r.add("%-10s %7.2fx %10.2fx (%v)", net.Name, fp16, smallest, small)
	}
	r.add("(paper example: AlexNet 1.18x at FP16, 1.48x at FP8)")
	return r
}

// Fig17 reproduces the dynamic-allocation study: dynamic alone, Gist
// lossless and lossless+lossy under dynamic allocation, and the optimized-
// software scenario (no decoded staging buffers), all against the static
// CNTK baseline.
func Fig17(mb int) *Result {
	r := &Result{ID: "fig17", Title: "Dynamic allocation MFR vs static CNTK baseline"}
	r.add("%-10s %9s %10s %8s %10s", "network", "dynamic", "lossless", "lossy", "optimized")
	var sums [4]float64
	n := 0
	for _, net := range suite(mb) {
		base := core.MustBuild(core.Request{Graph: net.G})
		reqs := []core.Request{
			{Graph: net.G, Allocation: core.DynamicAllocation},
			{Graph: net.G, Allocation: core.DynamicAllocation, Encodings: losslessCfg()},
			{Graph: net.G, Allocation: core.DynamicAllocation, Encodings: lossyCfg(net.Name)},
			{Graph: net.G, Allocation: core.DynamicAllocation, Encodings: lossyCfg(net.Name), ElideDecoded: true},
		}
		keys := []string{"dynamic", "lossless", "lossy", "optimized"}
		vals := make([]float64, len(reqs))
		for i, req := range reqs {
			vals[i] = core.MustBuild(req).MFR(base)
			r.set(net.Name+"/"+keys[i], vals[i])
			sums[i] += vals[i]
		}
		n++
		r.add("%-10s %8.2fx %9.2fx %7.2fx %9.2fx", net.Name, vals[0], vals[1], vals[2], vals[3])
	}
	r.add("%-10s %8.2fx %9.2fx %7.2fx %9.2fx", "average",
		sums[0]/float64(n), sums[1]/float64(n), sums[2]/float64(n), sums[3]/float64(n))
	r.add("(paper: dynamic avg 1.2x; Gist lossless 1.7x; lossy 2.6x; optimized avg 2.9x, up to 4.1x)")
	return r
}
