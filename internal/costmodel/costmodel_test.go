package costmodel

import (
	"math"
	"testing"

	"gist/internal/encoding"
	"gist/internal/floatenc"
	"gist/internal/graph"
	"gist/internal/layers"
	"gist/internal/networks"
)

func TestTitanXParameters(t *testing.T) {
	d := TitanX()
	if d.MemoryBytes != 12<<30 {
		t.Error("Titan X has 12 GB")
	}
	if d.PeakFLOPS < 6e12 || d.PeakFLOPS > 6.5e12 {
		t.Error("Titan X peak ~6.14 TFLOPS")
	}
	if d.PCIeBandwidth > d.MemBandwidth {
		t.Error("PCIe must be far slower than DRAM")
	}
}

func TestConvIsComputeBound(t *testing.T) {
	d := TitanX()
	g := graph.New()
	in := g.MustAdd("in", layers.NewInput(64, 256, 28, 28))
	conv := g.MustAdd("conv", layers.NewConv2D(256, 3, 1, 1), in)
	computeTime := d.ForwardTime(conv)
	// Pure streaming time of the same data must be much smaller: the
	// layer is compute bound.
	stream := d.streamTime(layerBytes(conv))
	if computeTime <= stream*2 {
		t.Errorf("3x3x256 conv should be compute bound: %v vs stream %v", computeTime, stream)
	}
}

func TestReLUIsBandwidthBound(t *testing.T) {
	d := TitanX()
	g := graph.New()
	in := g.MustAdd("in", layers.NewInput(64, 64, 112, 112))
	relu := g.MustAdd("relu", layers.NewReLU(), in)
	ft := d.ForwardTime(relu)
	// One FLOP per element: compute time is tiny; memory time dominates.
	want := d.streamTime(layerBytes(relu))
	if math.Abs(ft-want)/want > 1e-9 {
		t.Errorf("ReLU time %v should equal stream time %v", ft, want)
	}
}

func TestBackwardTimeDoubling(t *testing.T) {
	d := TitanX()
	g := graph.New()
	in := g.MustAdd("in", layers.NewInput(8, 16, 28, 28))
	conv := g.MustAdd("conv", layers.NewConv2D(16, 3, 1, 1), in)
	relu := g.MustAdd("relu", layers.NewReLU(), conv)
	if d.BackwardTime(conv) != 2*d.ForwardTime(conv) {
		t.Error("conv backward should be 2x forward")
	}
	if d.BackwardTime(relu) != d.ForwardTime(relu) {
		t.Error("relu backward should equal forward")
	}
}

func TestGistOverheadSmall(t *testing.T) {
	// The headline performance claim: Gist's encode/decode overhead is a
	// few percent of the step time on the real networks.
	d := TitanX()
	for _, spec := range []func(int) *graph.Graph{networks.AlexNet, networks.VGG16} {
		g := spec(64)
		base := d.StepTime(g)
		a := encoding.Analyze(g, encoding.LossyLossless(floatenc.FP16))
		gist := d.GistStepTime(g, a)
		ov := Overhead(base, gist)
		if ov < 0 || ov > 0.12 {
			t.Errorf("Gist overhead = %.1f%%, want small positive", ov*100)
		}
	}
}

func TestBinarizeAloneCanImprovePerformance(t *testing.T) {
	// Binarize reduces backward-pass bandwidth; its net overhead must be
	// negative or negligible (the paper observed small improvements).
	d := TitanX()
	g := networks.VGG16(64)
	a := encoding.Analyze(g, encoding.Config{Binarize: true})
	if ov := d.EncodingOverhead(a); ov > 0 {
		t.Errorf("Binarize-only overhead = %v, want <= 0", ov)
	}
}

func TestStepTimePositiveAndScales(t *testing.T) {
	d := TitanX()
	t32 := d.StepTime(networks.AlexNet(32))
	t64 := d.StepTime(networks.AlexNet(64))
	if t32 <= 0 || t64 <= 1.5*t32 == false && t64 < t32 {
		t.Fatalf("step times: %v, %v", t32, t64)
	}
	if t64 < 1.8*t32 || t64 > 2.2*t32 {
		t.Errorf("doubling minibatch should ~double time: %v vs %v", t64, t32)
	}
}

func TestTransferTime(t *testing.T) {
	d := TitanX()
	// 12 GB over 12 GB/s = 1 s.
	if got := d.TransferTime(12e9); math.Abs(got-1) > 1e-9 {
		t.Errorf("TransferTime = %v", got)
	}
}

func TestUtilizationCurve(t *testing.T) {
	// Monotone increasing, saturating under 1.
	prev := 0.0
	for _, mb := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		e := UtilizationEff(mb)
		if e <= prev || e >= 1 {
			t.Fatalf("eff(%d) = %v not in (prev, 1)", mb, e)
		}
		prev = e
	}
	// Doubling a small minibatch gains much more than doubling a large one.
	smallGain := ThroughputSpeedup(16, 32)
	largeGain := ThroughputSpeedup(512, 1024)
	if smallGain <= largeGain {
		t.Errorf("small-mb gain %v should exceed large-mb gain %v", smallGain, largeGain)
	}
	// The Figure 16 regime: quadrupling a knee-region minibatch gives a
	// 10-60% gain.
	if g := ThroughputSpeedup(140, 560); g < 1.1 || g > 1.6 {
		t.Errorf("speedup(140->560) = %v", g)
	}
}

func TestOverheadMetric(t *testing.T) {
	if Overhead(100, 104) != 0.04 {
		t.Error("Overhead(100,104) should be 4%")
	}
}
