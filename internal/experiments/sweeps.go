package experiments

// Sweep experiments: how the headline numbers move along the two axes the
// paper's narrative leans on — minibatch size (larger minibatches are
// desirable but memory-bound) and ReLU sparsity (SSDC's effectiveness is
// data dependent, Figure 14's full range).

import (
	"fmt"

	"gist/internal/core"
	"gist/internal/encoding"
	"gist/internal/graph"
	"gist/internal/networks"
)

// ExtMinibatchSweep plans VGG16 across minibatch sizes: footprints scale
// linearly with the minibatch while Gist's MFR stays flat, so the largest
// fitting minibatch grows by the MFR.
func ExtMinibatchSweep() *Result {
	r := &Result{ID: "mbsweep", Title: "VGG16 footprint vs minibatch size (baseline and Gist)"}
	r.add("%-10s %12s %12s %8s", "minibatch", "baseline", "gist", "MFR")
	cfg := lossyCfg("VGG16")
	for _, mb := range []int{8, 16, 32, 64, 128} {
		g := networks.VGG16(mb)
		base := core.MustBuild(core.Request{Graph: g})
		gist := core.MustBuild(core.Request{Graph: g, Encodings: cfg})
		mfr := gist.MFR(base)
		r.set(nameMB(mb)+"/baseline-gb", gb(base.TotalBytes))
		r.set(nameMB(mb)+"/gist-gb", gb(gist.TotalBytes))
		r.set(nameMB(mb)+"/mfr", mfr)
		r.add("%-10d %9.2f GB %9.2f GB %7.2fx", mb,
			gb(base.TotalBytes), gb(gist.TotalBytes), mfr)
	}
	r.add("(MFR is minibatch independent: Gist's savings scale with the workload)")
	return r
}

func nameMB(mb int) string {
	switch mb {
	case 8:
		return "mb8"
	case 16:
		return "mb16"
	case 32:
		return "mb32"
	case 64:
		return "mb64"
	default:
		return "mb128"
	}
}

// ExtSparsitySweep plans VGG16 under SSDC-only encoding across assumed
// ReLU sparsities, tracing the narrow-CSR effectiveness curve from the
// 20% break-even to the >80% the paper measures on trained VGG16.
func ExtSparsitySweep() *Result {
	r := &Result{ID: "sparsitysweep", Title: "SSDC MFR vs assumed ReLU sparsity (VGG16, investigation baseline)"}
	r.add("%-10s %10s %14s", "sparsity", "SSDC MFR", "stash ratio")
	g := networks.VGG16(DefaultMinibatch)
	base := core.MustBuild(core.Request{Graph: g, InvestigationBaseline: true})
	for _, sp := range []float64{0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9} {
		sp := sp
		cfg := encoding.Config{
			SSDC:         true,
			FCIsConvLike: true,
			Sparsity: func(n *graph.Node) float64 {
				if encoding.DefaultSparsity(n) > 0 {
					return sp
				}
				return 0
			},
		}
		p := core.MustBuild(core.Request{Graph: g, Encodings: cfg, InvestigationBaseline: true})
		mfr := p.MFR(base)
		// Per-stash compression at this sparsity for a large buffer.
		const n = 1 << 20
		stashRatio := float64(int64(n)*4) / float64(encoding.CSRBytesModel(n, sp))
		key := spKey(sp)
		r.set(key+"/mfr", mfr)
		r.set(key+"/stash-ratio", stashRatio)
		r.add("%-10s %9.2fx %13.2fx", fmt.Sprintf("%.0f%%", 100*sp), mfr, stashRatio)
	}
	r.add("(below the 20%% break-even SSDC is skipped entirely — MFR 1.0x; in the")
	r.add(" 30-40%% band the per-stash compression is real but the decoded FP32")
	r.add(" staging can still cost more than it saves; the paper's trained VGG16")
	r.add(" sits in the 80-90%% band where SSDC wins outright)")
	return r
}

func spKey(sp float64) string {
	switch {
	case sp < 0.15:
		return "s10"
	case sp < 0.25:
		return "s20"
	case sp < 0.35:
		return "s30"
	case sp < 0.6:
		return "s50"
	case sp < 0.75:
		return "s70"
	case sp < 0.85:
		return "s80"
	default:
		return "s90"
	}
}
